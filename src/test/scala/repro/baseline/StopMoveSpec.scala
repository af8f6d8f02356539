package repro.baseline

import repro.SparkSpec
import repro.core.Schema._
import repro.indoor.Geometry._
import repro.indoor.{Dsm, Door, Region}

class StopMoveSpec extends SparkSpec {

  private val dsm = new Dsm(
    IndexedSeq(
      Region("A", 0, Rect(0, 0, 10, 10), "Adidas", "room"),
      Region("B", 0, Rect(10, 0, 20, 10), "Nike", "room")),
    IndexedSeq(Door("d1", "A", "B", 10, 5)))

  private def rec(ts: Long, x: Double, y: Double, f: Int = 0) = PosRecord("dev", ts, x, y, f)

  test("a long stationary run becomes one stay") {
    val rs = (0 until 30).map(i => rec(i * 5L, 5, 5))
    val out = StopMove.annotateDevice(dsm, rs)
    assert(out.size == 1)
    assert(out.head.event == Stay && out.head.tag == "Adidas")
  }

  test("fast movement becomes pass-by") {
    val rs = (0 until 10).map(i => rec(i * 5L, i * 5.0, 5))
    val out = StopMove.annotateDevice(dsm, rs)
    assert(out.forall(_.event == PassBy))
  }

  test("stop-move-stop segments in order") {
    val stop1 = (0 until 30).map(i => rec(i * 5L, 5, 5))
    val move = (1 to 3).map(i => rec(150 + i * 5L, 5 + i * 4.0, 5))
    val stop2 = (0 until 30).map(i => rec(170 + i * 5L, 17, 5))
    val out = StopMove.annotateDevice(dsm, stop1 ++ move ++ stop2)
    assert(out.head.event == Stay && out.head.tag == "Adidas")
    assert(out.last.event == Stay && out.last.tag == "Nike")
    assert(out.exists(_.event == PassBy))
    assert(out.map(_.tStart) == out.map(_.tStart).sorted)
  }

  test("nearest-centroid annotation ignores walls (the design flaw)") {
    // With a wide neighbour, a point just inside it sits closer to the
    // small room's centroid — the baseline mislabels it by construction.
    val wide = new Dsm(
      IndexedSeq(
        Region("A", 0, Rect(0, 0, 10, 10), "Adidas", "room"),
        Region("B", 0, Rect(10, 0, 30, 10), "Nike", "room")),
      IndexedSeq(Door("d1", "A", "B", 10, 5)))
    val rs = (0 until 30).map(i => rec(i * 5L, 10.5, 5))
    val out = StopMove.annotateDevice(wide, rs)
    assert(out.head.tag == "Adidas") // wrong on purpose: Euclidean centroid
  }

  test("no complementing: gaps stay holes") {
    val rs = (0 until 30).map(i => rec(i * 5L, 5, 5)) ++
      (0 until 30).map(i => rec(2000 + i * 5L, 15, 5))
    val out = StopMove.annotateDevice(dsm, rs)
    assert(out.forall(_.source == "baseline"))
    assert(!out.exists(s => s.tStart > 150 && s.tEnd < 2000))
  }

  test("empty input") {
    assert(StopMove.annotateDevice(dsm, Seq.empty).isEmpty)
  }

  test("spark-level annotate is device-parallel and consistent") {
    import spark.implicits._
    val rs = ((0 until 30).map(i => rec(i * 5L, 5, 5)) ++
      (0 until 30).map(i => PosRecord("dev2", i * 5L, 15, 5, 0))).toDS()
    val b = spark.sparkContext.broadcast(dsm)
    Seq(1, 7).foreach { n =>
      val out = StopMove.annotate(spark, rs.repartition(n), b).collect()
      assert(out.filter(_.deviceId == "dev").toVector ==
        StopMove.annotateDevice(dsm, (0 until 30).map(i => rec(i * 5L, 5, 5))), s"$n partitions")
      assert(out.exists(s => s.deviceId == "dev2" && s.tag == "Nike"), s"$n partitions")
    }
  }
}
