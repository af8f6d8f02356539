package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Schema._
import repro.gen.Mall
import repro.indoor.Geometry._
import repro.indoor.{Dsm, Door, Region}

/** Cleaning-layer unit tests on a compact two-floor space (sequential
  * device-level algorithm; the Spark path is covered in TranslatorSpec).
  *
  * Space: room A [0,10]² — d(10,5) — room B [10,20]x[0,10] on floor 0;
  * stair S0 [20,25]x[0,10] — corridor-ish; floor 1 mirrors with room C.
  */
class CleanerSpec extends AnyFunSuite {

  private val dsm = new Dsm(
    IndexedSeq(
      Region("A", 0, Rect(0, 0, 10, 10), "A", "room"),
      Region("B", 0, Rect(10, 0, 20, 10), "B", "room"),
      Region("S0", 0, Rect(20, 0, 25, 10), "S0", "staircase"),
      Region("S1", 1, Rect(20, 0, 25, 10), "S1", "staircase"),
      Region("C", 1, Rect(10, 0, 20, 10), "C", "room")),
    IndexedSeq(
      Door("d1", "A", "B", 10, 5),
      Door("d2", "B", "S0", 20, 5),
      Door("d3", "S1", "C", 20, 5),
      Door("v", "S0", "S1", 22.5, 5, crossCost = 7.0)))

  private def rec(ts: Long, x: Double, y: Double, f: Int = 0) =
    PosRecord("dev", ts, x, y, f)

  /** Crafted cases are built from exact walking distances; the production
    * noise slack would blur the thresholds, so it is zeroed here (the
    * mall-scale test below runs with the production defaults). */
  private def cleanExact(rs: Seq[PosRecord], maxSpeed: Double = Cleaner.DefaultMaxSpeed) =
    Cleaner.cleanDevice(dsm, rs, maxSpeed, noiseSlack = 0.0)

  test("a valid sequence passes through untouched") {
    val rs = Seq(rec(0, 1, 5), rec(5, 6, 5), rec(10, 11, 5), rec(15, 16, 5))
    val out = cleanExact(rs)
    assert(out.map(_.repair) == Vector("none", "none", "none", "none"))
    assert(out.map(_.toPos) == rs.toVector)
  }

  test("records are sorted and duplicate timestamps dropped") {
    val rs = Seq(rec(10, 2, 5), rec(0, 1, 5), rec(10, 9, 9), rec(5, 1.5, 5))
    val out = cleanExact(rs)
    assert(out.map(_.ts) == Vector(0L, 5L, 10L))
    assert(out(2).x == 2) // ts ties break on (floor, x, y): the smaller x wins
  }

  test("conflicting duplicate timestamps clean the same in any input order") {
    val rs = Seq(rec(0, 1, 5), rec(5, 2, 5), rec(5, 2, 4), rec(5, 18, 5), rec(5, 2, 5, f = 1),
                 rec(10, 3, 5), rec(10, 15, 5), rec(15, 4, 5))
    val orders = rs.reverse +: (0 until 100).map(i => new scala.util.Random(i).shuffle(rs))
    val outs = (rs +: orders).map(cleanExact(_)).toSet
    assert(outs.size == 1)
    assert(outs.head.map(_.ts) == Vector(0L, 5L, 10L, 15L))
    assert(outs.head(1).toPos == rec(5, 2, 4))
  }

  test("wrong floor value is corrected when that explains the violation") {
    // Stationary in room B, one record reports floor 1 (room C): walking
    // distance B->C is huge (through both stairs), so speed violates; with
    // the previous floor substituted the point is fine.
    val rs = Seq(rec(0, 15, 5), rec(5, 15.5, 5), rec(10, 15.7, 5, f = 1), rec(15, 16, 5))
    val out = cleanExact(rs)
    assert(out(2).repair == "floor")
    assert(out(2).floor == 0)
    assert(out(2).x == 15.7) // location kept, only the floor fixed
  }

  test("outlier jump is repaired by interpolation toward the next anchor") {
    // Walking slowly in A; one record teleports to room B's far corner.
    val rs = Seq(rec(0, 2, 5), rec(5, 3, 5), rec(10, 19, 1), rec(15, 5, 5), rec(20, 6, 5))
    val out = cleanExact(rs)
    assert(out(2).repair == "interp")
    // Interpolated point lies between (3,5)@5 and (5,5)@15 in room A.
    assert(out(2).floor == 0)
    assert(out(2).x >= 3 && out(2).x <= 5.5)
    assert(dsm.regionAtSnapped(out(2).point).map(_.id).contains("A"))
  }

  test("interpolated record is speed-consistent with both neighbours") {
    val rs = Seq(rec(0, 2, 5), rec(5, 19, 1), rec(10, 3, 5))
    val out = cleanExact(rs, maxSpeed = 1.5)
    val d1 = dsm.minWalkDist(out(0).point, out(1).point) / 5.0
    val d2 = dsm.minWalkDist(out(1).point, out(2).point) / 5.0
    assert(d1 <= 1.5 + 1e-9, s"pre-speed $d1")
    assert(d2 <= 1.5 + 1e-9, s"post-speed $d2")
  }

  test("trailing outliers with no anchor hold the last valid location") {
    // The tail outliers are unreachable from the last valid record even
    // with the floor substituted (dt too small), so no anchor exists.
    val rs = Seq(rec(0, 2, 5), rec(5, 3, 5), rec(7, 19, 9, f = 1), rec(9, 19.5, 9.5, f = 1))
    val out = cleanExact(rs)
    assert(out(2).repair == "interp" && out(3).repair == "interp")
    assert(out(2).x == 3 && out(2).y == 5 && out(2).floor == 0)
    assert(out(3).x == 3 && out(3).y == 5 && out(3).floor == 0)
  }

  test("floor error burst: consecutive wrong floors all corrected") {
    val rs = Seq(rec(0, 15, 5), rec(5, 15.2, 5, f = 1), rec(10, 15.4, 5, f = 1), rec(15, 15.6, 5))
    val out = cleanExact(rs)
    assert(out.count(_.repair == "floor") == 2)
    assert(out.forall(_.floor == 0))
  }

  test("genuine fast-but-legal movement is not flagged") {
    // 2.9 m/s along the open room: below the 3.0 bound.
    val rs = Seq(rec(0, 1, 5), rec(2, 6.8, 5), rec(4, 12.6, 5, f = 0))
    val out = cleanExact(rs)
    assert(out.forall(_.repair == "none"))
  }

  test("wall-clipping noise is repaired even intra-floor") {
    // Stationary near A's inner wall; one sample leaks deep into B. The
    // walking route through d1 makes it a violation; no floor to fix, so
    // interpolation pulls it back.
    val rs = Seq(rec(0, 9, 1), rec(4, 9.2, 1.2), rec(8, 12, 1), rec(12, 9.4, 1.1))
    val out = cleanExact(rs, maxSpeed = 1.0)
    assert(out(2).repair == "interp")
    assert(dsm.regionAtSnapped(out(2).point).map(_.id).contains("A"))
  }

  test("cleaning is idempotent") {
    val rs = Seq(rec(0, 2, 5), rec(5, 3, 5), rec(10, 19, 1), rec(15, 5, 5), rec(20, 6, 5))
    val once = cleanExact(rs)
    val twice = cleanExact(once.map(_.toPos))
    assert(twice.forall(_.repair == "none"))
    assert(twice.map(_.toPos) == once.map(_.toPos))
  }

  test("empty and singleton inputs") {
    assert(cleanExact(Seq.empty).isEmpty)
    val one = cleanExact(Seq(rec(0, 5, 5)))
    assert(one.size == 1 && one.head.repair == "none")
  }

  test("output covers every input timestamp exactly once") {
    val rng = new scala.util.Random(7)
    val rs = (0 until 50).map(i =>
      rec(i * 5L, rng.nextDouble() * 25, rng.nextDouble() * 10, if (rng.nextDouble() < 0.2) 1 else 0))
    val out = cleanExact(rs)
    assert(out.map(_.ts) == rs.map(_.ts).toVector)
  }

  test("all cleaned records satisfy the speed constraint pairwise") {
    val rng = new scala.util.Random(11)
    val rs = (0 until 60).map(i =>
      rec(i * 5L, rng.nextDouble() * 25, rng.nextDouble() * 10, rng.nextInt(2)))
    val out = cleanExact(rs, maxSpeed = 3.0)
    // A re-anchor deliberately accepts a discontinuity (the *previous*
    // record was judged the outlier), so those boundaries are exempt.
    out.sliding(2).foreach { case Vector(a, b) =>
      if (b.repair != "reanchor") {
        val v = dsm.minWalkDist(a.point, b.point) / (b.ts - a.ts)
        assert(v <= 3.0 + 1e-6, s"pair ${a.ts}->${b.ts} speed $v")
      }
    }
  }

  test("an off-map first record takes the location of the first on-map record") {
    val rest = Seq(rec(5, 2, 5), rec(10, 3, 5), rec(15, 4, 5))
    Seq(rec(0, Double.NaN, 5), rec(0, 1, Double.PositiveInfinity), rec(0, 1, 5, f = 99)).foreach { first =>
      val out = cleanExact(first +: rest)
      assert(out.head == CleanRecord("dev", 0, 2, 5, 0, "interp"), s"first $first")
      assert(out.tail.map(_.toPos) == rest.toVector)
      assert(out.tail.forall(_.repair == "none"))
    }
    // Two off-map records first: both are repaired; one record per timestamp.
    val out = cleanExact(Seq(rec(0, Double.NaN, 5), rec(2, 2, 5, f = 99)) ++ rest)
    assert(out.map(_.ts) == Vector(0L, 2L, 5L, 10L, 15L))
    assert(out.take(2).map(r => (r.x, r.y, r.floor)) == Vector((2.0, 5.0, 0), (2.0, 5.0, 0)))
    assert(out.take(2).forall(_.repair != "none"))
  }

  test("a device with no on-map record keeps one record per timestamp") {
    val out = cleanExact(Seq(rec(0, 1, 5, f = 99), rec(5, 2, 5, f = 99), rec(5, 3, 5, f = 99)))
    assert(out.map(_.ts) == Vector(0L, 5L))
    assert(out.head == CleanRecord("dev", 0, 1, 5, 99, "none"))
  }

  test("mall-scale cleaning reduces positioning error vs ground truth") {
    import repro.gen.SynthIndoor
    val mall = Mall.dsm()
    val cfg = SynthIndoor.SimConfig(nDevices = 3, seed = 5L)
    (0 until 3).foreach { i =>
      val sim = SynthIndoor.simulate(mall, cfg, i)
      val out = Cleaner.cleanDevice(mall, sim.raw)
      val gtByTs = sim.gt.map(g => g.ts -> g).toMap
      def err(recs: Seq[(Long, Double, Double, Int)]): Double = {
        val es = recs.flatMap { case (ts, x, y, f) =>
          gtByTs.get(ts).map(g => Pt(x, y).dist(Pt(g.x, g.y)) + (if (f != g.floor) 20 else 0))
        }
        es.sum / es.size
      }
      val rawErr = err(sim.raw.map(r => (r.ts, r.x, r.y, r.floor)))
      val cleanErr = err(out.map(r => (r.ts, r.x, r.y, r.floor)))
      assert(cleanErr <= rawErr + 0.2, s"device $i raw=$rawErr clean=$cleanErr")
    }
  }
}
