# Test-time helper for the cli_eval_wide_root ctest entry: writes a
# circuit whose header declares VARIABLES variables that its one node,
# TRUE, never mentions, evaluates it with `swfomc eval`, and checks the
# answer. Smoothing multiplies the root by (w + w̄) = 2 for every
# variable, so under the default unit weights the answer is
# 2^VARIABLES: DIGITS decimal digits ending in SUFFIX. Usage:
#   cmake -D SWFOMC_CLI=<binary> -D WORK_DIR=<dir> -D VARIABLES=<n>
#         -D DIGITS=<count> -D SUFFIX=<last digits> -P eval_wide_root.cmake
set(circuit "${WORK_DIR}/wide_root.nnf")
file(WRITE "${circuit}" "nnf 1 0 ${VARIABLES}\nA 0\n")
execute_process(
  COMMAND ${SWFOMC_CLI} eval --compact "${circuit}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE output)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "swfomc eval failed with status ${status}")
endif()
if(NOT output MATCHES "\"wmc\":\"([0-9]+)\"")
  message(FATAL_ERROR "no wmc in the eval report")
endif()
set(wmc "${CMAKE_MATCH_1}")
string(LENGTH "${wmc}" length)
if(NOT length EQUAL DIGITS)
  message(FATAL_ERROR "wmc has ${length} digits, expected ${DIGITS}")
endif()
string(LENGTH "${SUFFIX}" suffix_length)
math(EXPR suffix_begin "${length} - ${suffix_length}")
string(SUBSTRING "${wmc}" ${suffix_begin} ${suffix_length} tail)
if(NOT tail STREQUAL SUFFIX)
  message(FATAL_ERROR "wmc ends in ${tail}, expected ${SUFFIX}")
endif()
