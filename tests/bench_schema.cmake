# Checks the schema of the wall-clock benches' JSON baselines against
# golden files: the sequence of keys and, for every number, how many
# decimals it is written with. Values are not compared — most are
# wall-clock readings.
#
#   cmake -DBENCH_DIR=<dir with BENCH_*_smoke.json>
#         -DGOLDEN_DIR=<dir with bench_*_smoke.schema> -P bench_schema.cmake
#
# One schema line per JSON field, in file order: "<key> <shape>", where
# shape is "string", "array", or the decimal count of a number. Each
# output's schema is also written next to it as <json>.schema; after a
# deliberate schema change that file is the new golden.
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_DIR GOLDEN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_schema.cmake needs -D${var}=<dir>")
  endif()
endforeach()

set(failed "")
foreach(bench throughput net keys)
  set(json "${BENCH_DIR}/BENCH_${bench}_smoke.json")
  set(golden "${GOLDEN_DIR}/bench_${bench}_smoke.schema")
  file(READ "${json}" text)
  # Brackets would nest CMake list elements; arrays are matched as '<'.
  string(REPLACE "[" "<" text "${text}")
  string(REGEX MATCHALL "\"[^\"]*\": (\"[^\"]*\"|<|[-+0-9.a-z]+)" fields
         "${text}")
  set(schema "")
  foreach(field IN LISTS fields)
    string(REGEX REPLACE "^\"([^\"]*)\": .*$" "\\1" key "${field}")
    string(REGEX REPLACE "^\"[^\"]*\": (.*)$" "\\1" value "${field}")
    if(value MATCHES "^\"")
      set(shape "string")
    elseif(value STREQUAL "<")
      set(shape "array")
    elseif(value MATCHES "\\.([0-9]+)$")
      string(LENGTH "${CMAKE_MATCH_1}" shape)
    else()
      set(shape "0")
    endif()
    string(APPEND schema "${key} ${shape}\n")
  endforeach()
  file(WRITE "${json}.schema" "${schema}")
  file(READ "${golden}" want)
  if(NOT schema STREQUAL want)
    string(APPEND failed "\n  diff ${golden} ${json}.schema")
  endif()
endforeach()

if(NOT failed STREQUAL "")
  message(FATAL_ERROR "key order or decimals differ from the golden "
                      "schema:${failed}")
endif()
