# Non-gating bench regression radar.
#
#   cmake -DBASELINE_DIR=results -DCANDIDATE_DIR=bench-results \
#         [-DTHRESHOLD_PCT=30] -P tools/bench_compare.cmake
#
# For every *.json present in BOTH directories and measured at the same
# `hw_concurrency` (a file whose core counts differ is skipped with a
# note), walks the candidate document and compares each timing leaf (a
# number whose key ends in "_ms" or contains "seconds") against the
# committed baseline at the same JSON path. A candidate more than THRESHOLD_PCT percent slower
# prints a WARNING naming the file, path, and both values.
#
# Deliberately NEVER fails: shared CI runners are too noisy for timings
# to gate a build (the byte-identity properties that DO gate live in
# the test suite). This script exists so a real regression shows up in
# the job log next to the uploaded artifacts, not so it blocks merges.

cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED BASELINE_DIR OR NOT DEFINED CANDIDATE_DIR)
  message(FATAL_ERROR
      "usage: cmake -DBASELINE_DIR=<dir> -DCANDIDATE_DIR=<dir> "
      "[-DTHRESHOLD_PCT=30] -P tools/bench_compare.cmake")
endif()
if(NOT DEFINED THRESHOLD_PCT)
  set(THRESHOLD_PCT 30)
endif()

set(COMPARED_COUNT 0)
set(REGRESSION_COUNT 0)

# Parses a non-negative decimal/scientific JSON number into an integer
# scaled by 1e6 (CMake's math() is integer-only, so ratios are computed
# in fixed point). Values too small to register at that scale become 0
# and are skipped by the caller.
function(fixed_point out_var value)
  if(value MATCHES "^([0-9]*)\\.?([0-9]*)[eE]([+-]?[0-9]+)$")
    set(int_part "${CMAKE_MATCH_1}")
    set(frac_part "${CMAKE_MATCH_2}")
    set(exponent "${CMAKE_MATCH_3}")
  elseif(value MATCHES "^([0-9]*)\\.?([0-9]*)$")
    set(int_part "${CMAKE_MATCH_1}")
    set(frac_part "${CMAKE_MATCH_2}")
    set(exponent 0)
  else()
    set(${out_var} 0 PARENT_SCOPE)
    return()
  endif()
  # digits = int_part followed by frac_part, with the decimal point
  # moved right by (exponent + 6) places.
  string(LENGTH "${frac_part}" frac_len)
  set(digits "${int_part}${frac_part}")
  math(EXPR point "${exponent} + 6 - ${frac_len}")
  if(point GREATER 0)
    foreach(i RANGE 1 ${point})
      string(APPEND digits "0")
    endforeach()
  elseif(point LESS 0)
    string(LENGTH "${digits}" digits_len)
    math(EXPR keep_len "${digits_len} + ${point}")
    if(keep_len LESS_EQUAL 0)
      set(digits 0)
    else()
      string(SUBSTRING "${digits}" 0 ${keep_len} digits)
    endif()
  endif()
  string(REGEX REPLACE "^0+([0-9])" "\\1" digits "${digits}")
  if(digits STREQUAL "")
    set(digits 0)
  endif()
  set(${out_var} "${digits}" PARENT_SCOPE)
endfunction()

# Compares one timing leaf; emits a WARNING on a >THRESHOLD_PCT
# slowdown. A baseline missing this path is skipped silently — a bench
# growing new fields must not spam the log.
function(compare_leaf file path candidate_value)
  string(JSON baseline_value ERROR_VARIABLE get_error
      GET "${BASELINE_JSON}" ${ARGN})
  if(get_error)
    return()
  endif()
  fixed_point(candidate_fp "${candidate_value}")
  fixed_point(baseline_fp "${baseline_value}")
  if(baseline_fp EQUAL 0 OR candidate_fp EQUAL 0)
    return()
  endif()
  math(EXPR next_count "${COMPARED_COUNT} + 1")
  set(COMPARED_COUNT "${next_count}" PARENT_SCOPE)
  math(EXPR limit "(${baseline_fp} * (100 + ${THRESHOLD_PCT})) / 100")
  if(candidate_fp GREATER limit)
    math(EXPR slow_pct
        "((${candidate_fp} - ${baseline_fp}) * 100) / ${baseline_fp}")
    message(WARNING
        "bench regression: ${file} ${path} is ${slow_pct}% slower "
        "(baseline ${baseline_value}, candidate ${candidate_value})")
    math(EXPR next_regressions "${REGRESSION_COUNT} + 1")
    set(REGRESSION_COUNT "${next_regressions}" PARENT_SCOPE)
  endif()
endfunction()

# Recursive walk of the candidate document; ${ARGN} is the member path.
function(walk_node file)
  string(JSON node_type ERROR_VARIABLE type_error
      TYPE "${CANDIDATE_JSON}" ${ARGN})
  if(type_error)
    return()
  endif()
  if(node_type STREQUAL "OBJECT" OR node_type STREQUAL "ARRAY")
    string(JSON length LENGTH "${CANDIDATE_JSON}" ${ARGN})
    if(length EQUAL 0)
      return()
    endif()
    math(EXPR last "${length} - 1")
    foreach(index RANGE 0 ${last})
      if(node_type STREQUAL "OBJECT")
        string(JSON member MEMBER "${CANDIDATE_JSON}" ${ARGN} ${index})
        walk_node("${file}" ${ARGN} "${member}")
      else()
        walk_node("${file}" ${ARGN} "${index}")
      endif()
    endforeach()
    set(COMPARED_COUNT "${COMPARED_COUNT}" PARENT_SCOPE)
    set(REGRESSION_COUNT "${REGRESSION_COUNT}" PARENT_SCOPE)
  elseif(node_type STREQUAL "NUMBER")
    list(LENGTH ARGN path_len)
    if(path_len EQUAL 0)
      return()
    endif()
    math(EXPR key_index "${path_len} - 1")
    list(GET ARGN ${key_index} key)
    if(key MATCHES "_ms$" OR key MATCHES "seconds")
      string(JSON candidate_value GET "${CANDIDATE_JSON}" ${ARGN})
      string(JOIN "." path_display ${ARGN})
      compare_leaf("${file}" "${path_display}" "${candidate_value}" ${ARGN})
      set(COMPARED_COUNT "${COMPARED_COUNT}" PARENT_SCOPE)
      set(REGRESSION_COUNT "${REGRESSION_COUNT}" PARENT_SCOPE)
    endif()
  endif()
endfunction()

file(GLOB candidate_files "${CANDIDATE_DIR}/*.json")
set(FILES_COMPARED 0)
foreach(candidate_path ${candidate_files})
  get_filename_component(name "${candidate_path}" NAME)
  set(baseline_path "${BASELINE_DIR}/${name}")
  if(NOT EXISTS "${baseline_path}")
    message(STATUS "bench_compare: no committed baseline for ${name}; skipping")
    continue()
  endif()
  file(READ "${candidate_path}" CANDIDATE_JSON)
  file(READ "${baseline_path}" BASELINE_JSON)
  # Timings taken at another core count are not comparable.
  string(JSON baseline_cores ERROR_VARIABLE baseline_cores_error
      GET "${BASELINE_JSON}" hw_concurrency)
  string(JSON candidate_cores ERROR_VARIABLE candidate_cores_error
      GET "${CANDIDATE_JSON}" hw_concurrency)
  if(NOT baseline_cores STREQUAL candidate_cores)
    message(STATUS "bench_compare: ${name} baseline hw_concurrency "
        "${baseline_cores} vs candidate ${candidate_cores}; skipping "
        "(unlike specs)")
    continue()
  endif()
  math(EXPR FILES_COMPARED "${FILES_COMPARED} + 1")
  walk_node("${name}")
endforeach()

message(STATUS
    "bench_compare: ${FILES_COMPARED} file(s), ${COMPARED_COUNT} timing "
    "field(s) compared, ${REGRESSION_COUNT} above the +${THRESHOLD_PCT}% "
    "threshold (warnings above, non-gating)")
