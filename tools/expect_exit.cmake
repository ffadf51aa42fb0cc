# expect(<rc> <needle> <program> <args>...): runs the program in WORK_DIR
# and fails unless it exits with exactly <rc> and the first line of its
# stderr (for exit 0, its stdout) contains <needle>. A usage error also
# prints the flag table, so the error line itself must name the flag.
# tools/flag_errors.cmake includes this file for its many cases.
#
# Standalone, one case: cmake -DPROGRAM=<tool> "-DARGS=<args>" -DRC=<rc>
#                             -DNEEDLE=<text> -DWORK_DIR=<dir>
#                             -P tools/expect_exit.cmake
# ARGS is split like a shell command line.
function(expect expected_rc needle program)
  execute_process(COMMAND "${program}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  get_filename_component(name "${program}" NAME)
  string(REPLACE ";" " " command "${name} ${ARGN}")
  if(expected_rc EQUAL 0)
    set(text "${out}")
  else()
    string(REGEX REPLACE "\n.*" "" text "${err}")
  endif()
  if(NOT rc STREQUAL "${expected_rc}")
    message(FATAL_ERROR "${command}\n  exit ${rc}, expected ${expected_rc}"
                        "\n${out}${err}")
  endif()
  string(FIND "${text}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${command}\n  output does not name '${needle}'"
                        "\n${out}${err}")
  endif()
  message(STATUS "ok (exit ${rc}, names ${needle}): ${command}")
endfunction()

if(DEFINED PROGRAM)
  foreach(var PROGRAM RC NEEDLE WORK_DIR)
    if(NOT DEFINED ${var})
      message(FATAL_ERROR "usage: cmake -DPROGRAM=<tool> \"-DARGS=<args>\" "
                          "-DRC=<rc> -DNEEDLE=<text> -DWORK_DIR=<dir> "
                          "-P expect_exit.cmake")
    endif()
  endforeach()
  get_filename_component(WORK_DIR "${WORK_DIR}" ABSOLUTE)
  file(MAKE_DIRECTORY "${WORK_DIR}")
  separate_arguments(args UNIX_COMMAND "${ARGS}")
  expect(${RC} "${NEEDLE}" "${PROGRAM}" ${args})
endif()
