# Run a command that must fail, and check how it fails.
#
#   cmake -DEXPECT=<regex> -P expect_error.cmake -- <command> [args...]
#
# Passes only when the command exits with a non-zero status and its
# output (stdout and stderr) matches EXPECT. CTest's own properties
# check one or the other, not both: PASS_REGULAR_EXPRESSION ignores the
# exit status and WILL_FAIL ignores the output.

set(cmd "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(after_dashes TRUE)
    endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT)
    message(FATAL_ERROR "usage: cmake -DEXPECT=<regex> "
        "-P expect_error.cmake -- <command> [args...]")
endif()

execute_process(COMMAND ${cmd}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
message("${output}")
# A crash reports a message, not a number: that is not a clean failure.
if(NOT status MATCHES "^[0-9]+$" OR status EQUAL 0)
    message(FATAL_ERROR "expected a non-zero exit status, got '${status}'")
endif()
if(NOT output MATCHES "${EXPECT}")
    message(FATAL_ERROR "exit status ${status}, but the output does not "
        "match '${EXPECT}'")
endif()
