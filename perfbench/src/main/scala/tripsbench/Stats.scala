package tripsbench

/** Order statistics for the benchmark's latency and timing samples. */
object Stats {

  /** Linear-interpolated quantile `q` in [0, 1] of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    require(q >= 0 && q <= 1, s"quantile $q outside [0, 1]")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** A tail latency: the sample value, the percentile it stands for and
    * the number of samples it was taken from. */
  final case class Tail(value: Double, percentile: Double, samples: Int)

  /** The highest percentile that still has at least `beyond` samples above
    * it: the `beyond + 1`-th largest sample, which is percentile
    * `100 * (n - beyond) / n`. With `beyond` or fewer samples no percentile
    * qualifies and the maximum is returned as percentile 100. */
  def tail(xs: Seq[Double], beyond: Int = 10): Tail = {
    require(xs.nonEmpty, "tail of an empty sample")
    val s = xs.sorted
    val n = s.size
    if (n <= beyond) Tail(s.last, 100.0, n)
    else Tail(s(n - 1 - beyond), 100.0 * (n - beyond) / n, n)
  }
}
