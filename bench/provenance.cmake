# Writes OUT, a header defining SQLTS_SOURCE_COMMIT as
# `git describe --always --dirty` of SOURCE_DIR ("unknown" outside a
# clone).  Run on every build (bench/CMakeLists.txt); OUT is rewritten
# only when the string changes, so an unchanged tree recompiles nothing.
execute_process(
  COMMAND git -C "${SOURCE_DIR}" describe --always --dirty
  OUTPUT_VARIABLE commit
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR commit STREQUAL "")
  set(commit "unknown")
endif()
set(text "#define SQLTS_SOURCE_COMMIT \"${commit}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
