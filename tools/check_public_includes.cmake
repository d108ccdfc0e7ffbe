# Public-API include guard: examples/, bench/ and the perfbench driver must
# compile against the public surface only — every quoted include must be a
# subspar/* header (or the bench-local common.hpp, which itself passes the
# same check). A direct
# src/-internal include ("core/extractor.hpp", "substrate/fd_solver.hpp", ...)
# fails the build's `public_include_guard` ctest and the CI step.
#
# Usage: cmake -DSOURCE_DIR=<repo root> -P tools/check_public_includes.cmake
if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DSOURCE_DIR=<repo root>")
endif()

file(GLOB guarded_files
  "${SOURCE_DIR}/examples/*.cpp" "${SOURCE_DIR}/examples/*.hpp"
  "${SOURCE_DIR}/bench/*.cpp" "${SOURCE_DIR}/bench/*.hpp"
  "${SOURCE_DIR}/perfbench/*.cpp")
if(NOT guarded_files)
  message(FATAL_ERROR "no files found under ${SOURCE_DIR}/examples, bench and perfbench")
endif()

set(violations "")
foreach(file IN LISTS guarded_files)
  file(STRINGS "${file}" include_lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS include_lines)
    string(REGEX MATCH "\"([^\"]+)\"" _ "${line}")
    set(header "${CMAKE_MATCH_1}")
    if(NOT header MATCHES "^subspar/" AND NOT header STREQUAL "common.hpp")
      list(APPEND violations "${file}: ${header}")
    endif()
  endforeach()
endforeach()

if(violations)
  list(JOIN violations "\n  " pretty)
  message(FATAL_ERROR
    "examples/, bench/ and perfbench/ must include only subspar/* public headers "
    "(include/subspar/); found internal includes:\n  ${pretty}")
endif()
list(LENGTH guarded_files guarded_count)
message(STATUS "public include guard: OK (${guarded_count} files clean)")
