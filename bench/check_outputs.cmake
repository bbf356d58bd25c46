# Reruns every bench named in the equivalence manifest with no arguments and
# compares the SHA-256 of its stdout with the recorded hash.
#
#   cmake -DBENCH_DIR=build/bench -DMANIFEST=bench/expected_outputs.txt \
#         -P bench/check_outputs.cmake            # check (ctest runs this)
#   cmake ... -DUPDATE=ON -P bench/check_outputs.cmake   # rewrite the hashes
#
# Manifest lines are "<sha256>  <bench>"; lines starting with '#' are kept
# verbatim. Stdout lines starting with "[wall-clock]" are dropped before
# hashing. A bench that exits nonzero fails the check in either mode.
cmake_minimum_required(VERSION 3.20)

if(NOT BENCH_DIR OR NOT MANIFEST)
  message(FATAL_ERROR "usage: cmake -DBENCH_DIR=<dir> -DMANIFEST=<file> [-DUPDATE=ON] -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(STRINGS "${MANIFEST}" lines)
set(rewritten "")
set(mismatches 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^#" OR line STREQUAL "")
    string(APPEND rewritten "${line}\n")
    continue()
  endif()
  if(NOT line MATCHES "^([0-9a-f]+)  ([A-Za-z0-9_]+)$")
    message(FATAL_ERROR "malformed manifest line: ${line}")
  endif()
  set(expected "${CMAKE_MATCH_1}")
  set(bench "${CMAKE_MATCH_2}")
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} exited with ${rc}")
  endif()
  # Run-dependent wall-clock figures sit on "[wall-clock] ..." lines
  # (bench::print_wall_clock); they are not part of the hashed output.
  string(REGEX REPLACE "\n\\[wall-clock\\][^\n]*" "" out "${out}")
  string(SHA256 actual "${out}")
  string(APPEND rewritten "${actual}  ${bench}\n")
  if(NOT actual STREQUAL expected)
    math(EXPR mismatches "${mismatches} + 1")
    message(STATUS "${bench}: stdout hash ${actual}, manifest has ${expected}")
  endif()
endforeach()

if(UPDATE)
  file(WRITE "${MANIFEST}" "${rewritten}")
  message(STATUS "rewrote ${MANIFEST} (${mismatches} hashes changed)")
elseif(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} bench output(s) differ from ${MANIFEST}")
endif()
