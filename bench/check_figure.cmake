# Runs one table driver and checks what it prints.
#
#   cmake -DDRIVER=<exe> -DGOLDEN=<file> -P check_figure.cmake
#     The driver runs with no arguments. Fails if it exits nonzero or if its
#     stdout differs from GOLDEN by a single byte. With DEDUKT_UPDATE_GOLDEN
#     set in the environment, rewrites GOLDEN with the stdout instead.
#
#   cmake -DDRIVER=<exe> -DARGS=<args> -DEXPECT_ERROR=<text> -P ...
#     Expects the driver, run with ARGS, to exit 1 with <text> on stderr.
execute_process(COMMAND ${DRIVER} ${ARGS}
  OUTPUT_VARIABLE actual ERROR_VARIABLE errors RESULT_VARIABLE status)

if(DEFINED EXPECT_ERROR)
  string(FIND "${errors}" "${EXPECT_ERROR}" found)
  if(NOT status EQUAL 1 OR found EQUAL -1)
    message(FATAL_ERROR "expected exit 1 and '${EXPECT_ERROR}' on stderr, "
                        "got exit ${status}, stderr:\n${errors}")
  endif()
  return()
endif()

if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${status}:\n${errors}")
endif()

if(DEFINED ENV{DEDUKT_UPDATE_GOLDEN})
  file(WRITE ${GOLDEN} "${actual}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/figures-actual/${name})
  file(WRITE ${actual_file} "${actual}")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${actual_file})
  endif()
  message(FATAL_ERROR "stdout of ${DRIVER} differs from ${GOLDEN} "
                      "(written to ${actual_file}; rerun with "
                      "DEDUKT_UPDATE_GOLDEN=1 to accept it)")
endif()
