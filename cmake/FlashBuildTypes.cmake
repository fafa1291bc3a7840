# Build-type setup for the Flash reproduction.
#
# In addition to the standard CMake build types this defines:
#   RelWithAssert  -O2 with assertions kept (no NDEBUG) — the default, so a
#                  plain `cmake -B build -S .` still exercises every assert.
#   Asan           AddressSanitizer + UndefinedBehaviorSanitizer, used by the
#                  sanitizer CI job over the test suite.
#   Tsan           ThreadSanitizer, used by the CI job that races the sweep
#                  engine (sim/sweep.h) and thread pool tests.

set(FLASH_KNOWN_BUILD_TYPES Debug Release RelWithDebInfo MinSizeRel
    RelWithAssert Asan Tsan)

get_property(_flash_multi_config GLOBAL PROPERTY GENERATOR_IS_MULTI_CONFIG)
if(NOT _flash_multi_config)
  if(NOT CMAKE_BUILD_TYPE)
    set(CMAKE_BUILD_TYPE RelWithAssert CACHE STRING "Build type" FORCE)
  endif()
  set_property(CACHE CMAKE_BUILD_TYPE PROPERTY STRINGS
               ${FLASH_KNOWN_BUILD_TYPES})
  if(NOT CMAKE_BUILD_TYPE IN_LIST FLASH_KNOWN_BUILD_TYPES)
    message(FATAL_ERROR "Unknown CMAKE_BUILD_TYPE '${CMAKE_BUILD_TYPE}'. "
                        "Expected one of: ${FLASH_KNOWN_BUILD_TYPES}")
  endif()
endif()

# Release-with-assertions: optimized but without NDEBUG.
set(CMAKE_CXX_FLAGS_RELWITHASSERT "-O2 -g"
    CACHE STRING "C++ flags for RelWithAssert builds")
# An explicit -DCMAKE_BUILD_TYPE=RelWithAssert on a fresh configure makes
# project() create this cache entry empty before this file runs, and the
# set() above never overwrites a cache entry: the build would be
# unoptimized.
if(CMAKE_CXX_FLAGS_RELWITHASSERT STREQUAL "")
  set(CMAKE_CXX_FLAGS_RELWITHASSERT "-O2 -g"
      CACHE STRING "C++ flags for RelWithAssert builds" FORCE)
endif()
set(CMAKE_EXE_LINKER_FLAGS_RELWITHASSERT ""
    CACHE STRING "Linker flags for RelWithAssert builds")
set(CMAKE_SHARED_LINKER_FLAGS_RELWITHASSERT ""
    CACHE STRING "Shared linker flags for RelWithAssert builds")

# Sanitizer build: ASan + UBSan, frame pointers kept for readable reports.
set(FLASH_SANITIZE_FLAGS
    "-O1 -g -fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer")
set(CMAKE_CXX_FLAGS_ASAN "${FLASH_SANITIZE_FLAGS}"
    CACHE STRING "C++ flags for Asan builds")
set(CMAKE_EXE_LINKER_FLAGS_ASAN "-fsanitize=address,undefined"
    CACHE STRING "Linker flags for Asan builds")
set(CMAKE_SHARED_LINKER_FLAGS_ASAN "-fsanitize=address,undefined"
    CACHE STRING "Shared linker flags for Asan builds")

# ThreadSanitizer build: data-race detection for the parallel sweep engine.
set(CMAKE_CXX_FLAGS_TSAN "-O1 -g -fsanitize=thread -fno-omit-frame-pointer"
    CACHE STRING "C++ flags for Tsan builds")
set(CMAKE_EXE_LINKER_FLAGS_TSAN "-fsanitize=thread"
    CACHE STRING "Linker flags for Tsan builds")
set(CMAKE_SHARED_LINKER_FLAGS_TSAN "-fsanitize=thread"
    CACHE STRING "Shared linker flags for Tsan builds")

mark_as_advanced(
  CMAKE_CXX_FLAGS_RELWITHASSERT
  CMAKE_EXE_LINKER_FLAGS_RELWITHASSERT
  CMAKE_SHARED_LINKER_FLAGS_RELWITHASSERT
  CMAKE_CXX_FLAGS_ASAN
  CMAKE_EXE_LINKER_FLAGS_ASAN
  CMAKE_SHARED_LINKER_FLAGS_ASAN
  CMAKE_CXX_FLAGS_TSAN
  CMAKE_EXE_LINKER_FLAGS_TSAN
  CMAKE_SHARED_LINKER_FLAGS_TSAN)
