package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Schema._
import repro.indoor.Geometry._
import repro.indoor.{Dsm, Door, Region}

class SplitterSpec extends AnyFunSuite {

  // Three rooms in a row, door-connected: A - B - C.
  private val dsm = new Dsm(
    IndexedSeq(
      Region("A", 0, Rect(0, 0, 10, 10), "A", "room"),
      Region("B", 0, Rect(10, 0, 20, 10), "B", "room"),
      Region("C", 0, Rect(20, 0, 30, 10), "C", "room")),
    IndexedSeq(Door("d1", "A", "B", 10, 5), Door("d2", "B", "C", 20, 5)))

  private def rec(ts: Long, x: Double, y: Double) =
    CleanRecord("dev", ts, x, y, 0, "none")

  /** A dwell: small jitter around (x, y) for n samples, 5 s apart. */
  private def dwell(t0: Long, x: Double, y: Double, n: Int): Seq[CleanRecord] =
    (0 until n).map(i => rec(t0 + i * 5L, x + (i % 3) * 0.3, y + (i % 2) * 0.3))

  /** A walk from x0 to x1 at y=5, 5 s apart, ~1.5 m/s. */
  private def walk(t0: Long, x0: Double, x1: Double): Seq[CleanRecord] = {
    val n = math.max(2, math.ceil(math.abs(x1 - x0) / 7.5).toInt + 1)
    (0 until n).map(i => rec(t0 + i * 5L, x0 + (x1 - x0) * i / (n - 1), 5))
  }

  test("a single long dwell is one dense snippet") {
    val out = Splitter.split(dsm, dwell(0, 5, 5, 20))
    assert(out.size == 1)
    assert(out.head.dense)
    assert(out.head.records.size == 20)
  }

  test("a short dwell below minDur is not dense") {
    val out = Splitter.split(dsm, dwell(0, 5, 5, 4)) // 15 s < 40 s
    assert(out.forall(!_.dense))
  }

  test("dwell-walk-dwell splits into three-plus snippets in order") {
    val d1 = dwell(0, 5, 5, 20)            // A, 95 s
    val w = walk(d1.last.ts + 5, 5, 25)    // A -> B -> C
    val d2 = dwell(w.last.ts + 5, 25, 5, 20) // C
    val out = Splitter.split(dsm, d1 ++ w ++ d2)
    assert(out.head.dense && out.last.dense)
    assert(out.count(_.dense) == 2)
    // Records preserved, in order, exactly once.
    assert(out.flatMap(_.records) == (d1 ++ w ++ d2))
  }

  test("movement snippets split at region transitions") {
    val w = walk(0, 2, 28) // crosses A, B, C
    val out = Splitter.split(dsm, w)
    assert(out.size >= 3)
    val regions = out.map(s => dsm.regionAtSnapped(s.records.head.point).get.id)
    assert(regions.distinct == Vector("A", "B", "C"))
  }

  test("a movement run that only crosses a shop's outer wall stays one region run") {
    // A corridor drawn before a shop in its corner; noise pushes every
    // other record west of the wall x = 0 they share. Snapped back, those
    // records sit on the shared wall, where the smaller region, the shop,
    // holds them.
    val mall = new Dsm(
      IndexedSeq(Region("COR", 0, Rect(0, 0, 100, 10), "Corridor", "corridor"),
                 Region("SHOP", 0, Rect(0, 0, 10, 5), "Shop", "room")),
      IndexedSeq(Door("ds", "COR", "SHOP", 10, 2.5)))
    val xs = Seq(2.0, -1.0, 3.0, -1.5, 4.0, -0.5)
    val rs = xs.zipWithIndex.map { case (x, i) => rec(i * 5L, x, 1 + 0.5 * i) } // 25 s < minDur
    val out = Splitter.split(mall, rs)
    assert(out.size == 1 && !out.head.dense && out.head.records == rs)
    assert(SpatialMatcher.matchSnippet(mall, out.head).map(_.id).contains("SHOP"))
  }

  test("a sampling hole larger than sessionGap always splits") {
    val d1 = dwell(0, 5, 5, 20)
    val d2 = dwell(d1.last.ts + 600, 5.2, 5.2, 20) // same place, 10 min later
    val out = Splitter.split(dsm, d1 ++ d2)
    assert(out.size == 2)
    assert(out.forall(_.dense))
  }

  test("dense snippets never span floors") {
    val a = (0 until 10).map(i => rec(i * 5L, 5, 5))
    val b = (10 until 20).map(i => CleanRecord("dev", i * 5L, 5, 5, 1, "none"))
    val dsm2 = new Dsm(
      IndexedSeq(Region("A", 0, Rect(0, 0, 10, 10), "A", "room"),
                 Region("A1", 1, Rect(0, 0, 10, 10), "A1", "room")),
      IndexedSeq(Door("v", "A", "A1", 5, 5, 4.0)))
    val out = Splitter.split(dsm2, a ++ b)
    out.filter(_.dense).foreach { s =>
      assert(s.records.map(_.floor).distinct.size == 1)
    }
  }

  test("snippet ids are unique and ascending") {
    val rs = dwell(0, 5, 5, 20) ++ walk(100, 5, 25) ++ dwell(300, 25, 5, 20)
    val out = Splitter.split(dsm, rs)
    assert(out.map(_.snippetId) == out.indices.map(identity).toVector)
  }

  test("no record is lost or duplicated across snippets") {
    val rng = new scala.util.Random(3)
    val rs = (0 until 100).map(i => rec(i * 5L, rng.nextDouble() * 30, rng.nextDouble() * 10))
    val out = Splitter.split(dsm, rs)
    assert(out.flatMap(_.records).sortBy(_.ts) == rs.toVector)
  }

  test("empty input yields no snippets") {
    assert(Splitter.split(dsm, Seq.empty).isEmpty)
  }

  test("tighter eps breaks a drifting dwell apart") {
    // Slow drift across 20 m: dense under a huge eps, not under a tight one.
    val drift = (0 until 30).map(i => rec(i * 10L, 2 + i * 0.6, 5))
    val loose = Splitter.split(dsm, drift, eps = 30.0)
    val tight = Splitter.split(dsm, drift, eps = 5.0)
    assert(loose.count(_.dense) == 1)
    assert(tight.size > loose.size)
  }

  test("dense snippet duration meets minDur") {
    val rs = dwell(0, 5, 5, 30) ++ walk(200, 5, 25)
    Splitter.split(dsm, rs).filter(_.dense).foreach { s =>
      assert(s.tEnd - s.tStart >= Splitter.DefaultMinDur)
    }
  }
}
