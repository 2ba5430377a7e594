# Source hygiene over src/, run as a ctest script:
#   cmake -DROOT=<repo root> -P tests/SourceHygiene.cmake
# Fails (non-zero exit) on any of:
#   - a header without its canonical RAP_<DIR>_<STEM>_H include guard;
#   - a randomness or clock source in core/, hw/ or verify/, whose runs
#     must replay bit-identically from support/Rng.h seeds;
#   - stdio or iostream in a per-event hot-path file (RapTree,
#     PipelinedEngine, Tcam).
# Comments and string and character literals are blanked first, so
# only code is checked.
set(NotId "[^A-Za-z0-9_]")
set(Nondet "(^|${NotId})((rand|srand|rand_r|random|drand48|random_device|mt19937|mt19937_64|minstd_rand|default_random_engine|system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime|timespec_get)(${NotId}|$)|(time|clock)[ \t\n]*\\()|#[ \t]*include[ \t]*<(random|chrono|ctime|time\\.h)>")
set(HotIo "(^|${NotId})(cout|cerr|clog|printf|fprintf|puts|fputs|putchar|fputc|scanf)(${NotId}|$)|#[ \t]*include[ \t]*<(iostream|stdio\\.h)>")
set(Literal "\"([^\"\\\\\n]|\\\\.)*\"|'([^'\\\\\n]|\\\\.)*'|//[^\n]*|/\\*([^*]|\\*+[^*/])*\\*+/")

file(GLOB_RECURSE Files RELATIVE ${ROOT} ${ROOT}/src/*.h ${ROOT}/src/*.cpp)
set(Failures 0)
foreach(File IN LISTS Files)
  file(READ ${ROOT}/${File} Text)
  string(REGEX REPLACE "${Literal}" " " Code "${Text}")
  set(Found "")
  if(File MATCHES "^src/(core|hw|verify)/" AND Code MATCHES "${Nondet}")
    set(Found "nondeterminism source '${CMAKE_MATCH_0}'")
  elseif(File MATCHES "/(RapTree|PipelinedEngine|Tcam)\\.[^/]*$" AND
         Code MATCHES "${HotIo}")
    set(Found "stdio in a per-event hot-path file: '${CMAKE_MATCH_0}'")
  elseif(File MATCHES "\\.h$")
    string(REGEX REPLACE "^src/|\\.h$" "" Guard "${File}")
    string(REPLACE "/" "_" Guard "${Guard}")
    string(TOUPPER "RAP_${Guard}_H" Guard)
    if(NOT Code MATCHES "^[ \t\n]*#ifndef ${Guard}\n#define ${Guard}\n" OR
       NOT Code MATCHES "\n#endif[^\n]*[ \t\n]*$" OR Code MATCHES "#pragma once")
      set(Found "no canonical include guard ${Guard} (#ifndef/#define first, #endif last)")
    endif()
  endif()
  if(Found)
    message("${File}: ${Found}")
    math(EXPR Failures "${Failures} + 1")
  endif()
endforeach()
if(Failures)
  message(FATAL_ERROR "source hygiene: ${Failures} file(s) failed")
endif()
list(LENGTH Files Count)
message("source hygiene: ${Count} files clean")
