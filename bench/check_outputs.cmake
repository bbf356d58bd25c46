# Reruns every bench named in the equivalence manifest and compares the
# SHA-256 of what it writes with the recorded hash.
#
#   cmake -DBENCH_DIR=build/bench -DMANIFEST=bench/expected_outputs.txt \
#         -P bench/check_outputs.cmake            # check (ctest runs this)
#   cmake ... -DUPDATE=ON -P bench/check_outputs.cmake   # rewrite the hashes
#
# Manifest lines are "<sha256>  <bench>" (the bench's stdout when run with no
# arguments) or "<sha256>  <bench> [<arg>...] --trace-out" (the trace file
# that run writes to a scratch path in BENCH_DIR). Lines starting with '#'
# and blank lines are kept verbatim. Stdout lines starting with
# "[wall-clock]" are dropped before hashing. A bench that exits nonzero fails
# the check in either mode, and so does a manifest whose text differs from
# what UPDATE would write, so UPDATE on an unchanged tree is a fixed point.
cmake_minimum_required(VERSION 3.20)

if(NOT BENCH_DIR OR NOT MANIFEST)
  message(FATAL_ERROR "usage: cmake -DBENCH_DIR=<dir> -DMANIFEST=<file> [-DUPDATE=ON] -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# Split on '\n' by hand: file(STRINGS) returns a list, and a list element
# ending in '\' escapes the ';' after it, which joins two comment lines.
file(READ "${MANIFEST}" text)
set(rest "${text}")
set(rewritten "")
set(mismatches 0)
while(NOT rest STREQUAL "")
  string(FIND "${rest}" "\n" nl)
  if(nl EQUAL -1)
    set(line "${rest}")
    set(rest "")
  else()
    string(SUBSTRING "${rest}" 0 ${nl} line)
    math(EXPR nl "${nl} + 1")
    string(SUBSTRING "${rest}" ${nl} -1 rest)
  endif()
  if(line MATCHES "^#" OR line STREQUAL "")
    string(APPEND rewritten "${line}\n")
    continue()
  endif()
  if(NOT line MATCHES "^([0-9a-f]+)  ([A-Za-z0-9_]+)(( [-A-Za-z0-9_]+)*)$")
    message(FATAL_ERROR "malformed manifest line: ${line}")
  endif()
  set(expected "${CMAKE_MATCH_1}")
  set(bench "${CMAKE_MATCH_2}")
  set(run "${CMAKE_MATCH_2}${CMAKE_MATCH_3}")
  separate_arguments(args UNIX_COMMAND "${CMAKE_MATCH_3}")
  set(trace_file "")
  if(run MATCHES " --trace-out$")
    set(trace_file "${BENCH_DIR}/${bench}.manifest-trace.json")
    file(REMOVE "${trace_file}")
    list(APPEND args "${trace_file}")
  endif()
  execute_process(COMMAND "${BENCH_DIR}/${bench}" ${args}
                  OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${run} exited with ${rc}")
  endif()
  if(trace_file)
    file(SHA256 "${trace_file}" actual)
    file(REMOVE "${trace_file}")
  else()
    # Run-dependent wall-clock figures sit on "[wall-clock] ..." lines
    # (bench::print_wall_clock); they are not part of the hashed output.
    string(REGEX REPLACE "\n\\[wall-clock\\][^\n]*" "" out "${out}")
    string(SHA256 actual "${out}")
  endif()
  string(APPEND rewritten "${actual}  ${run}\n")
  if(NOT actual STREQUAL expected)
    math(EXPR mismatches "${mismatches} + 1")
    message(STATUS "${run}: hash ${actual}, manifest has ${expected}")
  endif()
endwhile()

if(UPDATE)
  file(WRITE "${MANIFEST}" "${rewritten}")
  message(STATUS "rewrote ${MANIFEST} (${mismatches} hashes changed)")
elseif(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} bench output(s) differ from ${MANIFEST}")
elseif(NOT rewritten STREQUAL text)
  message(FATAL_ERROR "${MANIFEST} is not in the form UPDATE writes; regenerate it")
endif()
