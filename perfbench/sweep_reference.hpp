// Recorded optimal access-control objectives of the sweep_csigma grid.
// Instance seeds 1-16 were solved with `perfbench_harness
// --record-reference 1 16`; seeds 4, 6, 8, 9, 10 and 12 have a cell that
// takes 15 s to over 120 s there (4-core x86 container) and are left out,
// and so are 7, 13 and 15 (cells of 1.5-6.5 s), so that one pass over all
// cells takes 9-12 s and two passes fit one 30 s run. The node and pivot
// counts are for reading only and are not checked.
#pragma once

namespace perfbench {

struct SweepReference {
  int seed;
  double flexibility;
  double objective;
};

inline constexpr SweepReference kSweepReference[] = {
    {1, 1.0, 69.77556450208202},  // nodes=5 pivots=628
    {1, 2.0, 71.219284336810531},  // nodes=93 pivots=52426
    {2, 1.0, 62.92496196955949},  // nodes=6 pivots=1358
    {2, 2.0, 91.660500257661056},  // nodes=13 pivots=1770
    {3, 1.0, 114.86303723547869},  // nodes=1 pivots=176
    {3, 2.0, 114.86303723547869},  // nodes=8 pivots=1284
    {5, 1.0, 76.61708612218483},  // nodes=4 pivots=1185
    {5, 2.0, 76.61708612218483},  // nodes=6 pivots=1265
    {11, 1.0, 70.312407353750501},  // nodes=2 pivots=1394
    {11, 2.0, 70.312407353750501},  // nodes=3 pivots=1950
    {14, 1.0, 94.170159869755892},  // nodes=4 pivots=1007
    {14, 2.0, 94.170159869755892},  // nodes=6 pivots=1884
    {16, 1.0, 66.431720654769549},  // nodes=5 pivots=971
    {16, 2.0, 66.431720654769549},  // nodes=7 pivots=1263
};

}  // namespace perfbench
