package tripsbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("quantile interpolates between order statistics") {
    val xs = Seq(4.0, 1.0, 3.0, 2.0)
    assert(Stats.quantile(xs, 0.0) == 1.0)
    assert(Stats.quantile(xs, 1.0) == 4.0)
    assert(Stats.quantile(xs, 0.5) == 2.5)
    assert(math.abs(Stats.quantile(xs, 0.25) - 1.75) < 1e-12)
  }

  test("median of an odd sample is its middle element") {
    assert(Stats.median(Seq(9.0, 1.0, 5.0)) == 5.0)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("quantile rejects an empty sample and q outside [0, 1]") {
    assertThrows[IllegalArgumentException](Stats.quantile(Nil, 0.5))
    assertThrows[IllegalArgumentException](Stats.quantile(Seq(1.0), 1.5))
  }

  test("tail is the highest percentile with ten samples beyond it") {
    val xs = (1 to 100).map(_.toDouble)
    val t = Stats.tail(xs, 10)
    assert(t.value == 90.0)
    assert(t.percentile == 90.0)
    assert(t.samples == 100)
    assert(xs.count(_ > t.value) == 10)
  }

  test("tail percentile follows the sample count") {
    val t = Stats.tail((1 to 40).map(_.toDouble).reverse, 10)
    assert(t.value == 30.0)
    assert(t.percentile == 75.0)
  }

  test("with too few samples the tail is the maximum at percentile 100") {
    val t = Stats.tail(Seq(3.0, 8.0, 5.0), 10)
    assert(t == Stats.Tail(8.0, 100.0, 3))
    assert(Stats.tail((1 to 10).map(_.toDouble), 10).value == 10.0)
    assert(Stats.tail((1 to 11).map(_.toDouble), 10).value == 1.0)
  }
}
