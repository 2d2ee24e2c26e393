# Fails unless EXE, run with the space-separated ARGS, exits 2 (a rejected
# command line): cmake -DEXE=vcbench_cli "-DARGS=qoe --sessions abc" -P expect_exit_2.cmake
# With -DWANT=<regex>, its output must also match WANT.
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${argv} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "'${ARGS}' exited ${rc}, want 2\n${out}${err}")
endif()
if(DEFINED WANT AND NOT "${out}${err}" MATCHES "${WANT}")
  message(FATAL_ERROR "'${ARGS}' printed no match for '${WANT}'\n${out}${err}")
endif()
