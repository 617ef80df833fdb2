# Runs one driver with a bad option value and checks it fails the way a
# bad value must: exit status 1 within the timeout, with a message that
# names the option — never an abort (exit 134) or a hang.
#
#   cmake -DBIN=<driver> -DFLAG=<option> -DVALUE=<bad value> \
#         -P expect_cli_error.cmake
execute_process(COMMAND ${BIN} ${FLAG} ${VALUE}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR
          "${BIN} ${FLAG} ${VALUE}: expected exit status 1, got '${status}'\n"
          "${err}")
endif()
string(FIND "${err}" "'${FLAG}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${FLAG} ${VALUE}: error does not name ${FLAG}:\n"
          "${err}")
endif()
