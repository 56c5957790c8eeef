# Test-time helper for the cli_compile_reproduces_examples ctest entry:
# recompiles each MODELS_DIR/<name>.model with `swfomc compile --out-dir`
# and checks that every non-comment line of the fresh circuit equals the
# committed MODELS_DIR/<name>.nnf, byte for byte (the committed files
# only add `c` comment lines). Usage:
#   cmake -D SWFOMC_CLI=<binary> -D WORK_DIR=<dir> -D MODELS_DIR=<dir>
#         -D NAMES=<name>,<name>,... -P compile_matches_committed.cmake
string(REPLACE "," ";" names "${NAMES}")
list(TRANSFORM names PREPEND "${MODELS_DIR}/" OUTPUT_VARIABLE models)
list(TRANSFORM models APPEND ".model")
file(REMOVE_RECURSE "${WORK_DIR}")
execute_process(
  COMMAND ${SWFOMC_CLI} compile --compact --out-dir "${WORK_DIR}" ${models}
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "swfomc compile failed with status ${status}")
endif()
foreach(name IN LISTS names)
  file(READ "${WORK_DIR}/${name}.nnf" fresh)
  file(READ "${MODELS_DIR}/${name}.nnf" committed)
  # Drop the `c` comment lines of both.
  string(REGEX REPLACE "\nc[^\n]*" "" fresh "\n${fresh}")
  string(REGEX REPLACE "\nc[^\n]*" "" committed "\n${committed}")
  if(NOT fresh STREQUAL committed)
    message(FATAL_ERROR "${WORK_DIR}/${name}.nnf differs from the committed "
                        "${MODELS_DIR}/${name}.nnf outside its comments")
  endif()
endforeach()
