# Run CMD (a list: the program, then its arguments) and fail unless it
# exits with EXIT and its stdout+stderr matches the regex MATCH. With
# FILE set to "path;regex", the file at path must also match regex.
#
#   cmake "-DCMD=prog;arg;..." -DEXIT=2 "-DMATCH=regex" -P expect_exit.cmake
#
# pmill_cli_test() in the top-level CMakeLists.txt wraps this in a ctest.
if(FILE)
    list(GET FILE 0 path)
    list(GET FILE 1 file_match)
    file(REMOVE ${path})  # a stale file from an earlier run must not pass
endif()
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
if(FILE)
    if(NOT EXISTS ${path})
        message(FATAL_ERROR "${path} was not written")
    endif()
    file(READ ${path} body LIMIT 4096)
    if(NOT body MATCHES "${file_match}")
        message(FATAL_ERROR "${path} does not match '${file_match}'")
    endif()
endif()
