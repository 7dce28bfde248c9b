# Writes SIZE seeded pseudo-random alphanumeric bytes to OUT — an input
# with no internal repetition, so a byte copy of it deduplicates to zero
# new data. Usage: cmake -DOUT=<file> -DSIZE=<bytes> -P random_file.cmake
string(RANDOM LENGTH ${SIZE} RANDOM_SEED 7 data)
file(WRITE ${OUT} "${data}")
