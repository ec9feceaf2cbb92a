# Run CMD (a list: the program, then its arguments) and fail unless it
# exits with EXIT and its stdout+stderr matches the regex MATCH.
#
#   cmake "-DCMD=prog;arg;..." -DEXIT=2 "-DMATCH=regex" -P expect_exit.cmake
#
# pmill_cli_test() in the top-level CMakeLists.txt wraps this in a ctest.
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXIT)
    message(FATAL_ERROR "exit code ${rc}, expected ${EXIT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
    message(FATAL_ERROR "output does not match '${MATCH}':\n${out}${err}")
endif()
