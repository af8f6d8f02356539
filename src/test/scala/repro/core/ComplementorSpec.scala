package repro.core

import repro.SparkSpec
import repro.config.EventEditor
import repro.core.Knowledge.KnowledgeModel
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.Geometry._
import repro.indoor.{Dsm, Door, Region}

class ComplementorSpec extends SparkSpec {

  /** Diamond topology: A - (B | C) - D, plus dead-end E off B.
    * Doors make every edge walkable. */
  private val dsm = new Dsm(
    IndexedSeq(
      Region("A", 0, Rect(0, 0, 10, 10), "A", "room"),
      Region("B", 0, Rect(10, 0, 20, 10), "B", "room"),
      Region("C", 0, Rect(10, 10, 20, 20), "C", "room"),
      Region("D", 0, Rect(20, 0, 30, 10), "D", "room"),
      Region("E", 0, Rect(10, 20, 20, 30), "E", "room")),
    IndexedSeq(
      Door("ab", "A", "B", 10, 5),
      Door("ac", "A", "C", 10, 12), // A only spans y<=10; place on shared corner-ish wall
      Door("bd", "B", "D", 20, 5),
      Door("cd", "C", "D", 20, 10),
      Door("ce", "C", "E", 15, 20)))

  private val flat = KnowledgeModel(Map.empty, Map.empty, Map.empty)

  test("mapPath of identical endpoints is empty") {
    assert(Complementor.mapPath(dsm, flat, "A", "A").contains(Nil))
  }

  test("mapPath of adjacent regions has no intermediates") {
    assert(Complementor.mapPath(dsm, flat, "A", "B").contains(Nil))
  }

  test("mapPath bridges a two-hop gap") {
    val p = Complementor.mapPath(dsm, flat, "A", "D").get
    assert(p.size == 1 && (p.head == "B" || p.head == "C"))
  }

  test("knowledge steers the MAP path") {
    val viaC = KnowledgeModel(Map(("A", "C") -> 50L, ("C", "D") -> 50L), Map.empty, Map.empty)
    assert(Complementor.mapPath(dsm, viaC, "A", "D").get == List("C"))
    val viaB = KnowledgeModel(Map(("A", "B") -> 50L, ("B", "D") -> 50L), Map.empty, Map.empty)
    assert(Complementor.mapPath(dsm, viaB, "A", "D").get == List("B"))
  }

  test("mapPath avoids improbable dead-end detours") {
    val p = Complementor.mapPath(dsm, flat, "A", "E").get
    assert(p == List("C"))
  }

  test("mapPath to a disconnected region is None") {
    val dsm2 = new Dsm(dsm.regions :+ Region("Z", 0, Rect(50, 0, 60, 10), "Z", "room"), dsm.doors)
    assert(Complementor.mapPath(dsm2, flat, "A", "Z").isEmpty)
  }

  test("mapPath bridges a chain longer than 16 hops") {
    val n = 20
    val chain = new Dsm(
      (0 until n).map(i => Region(s"R$i", 0, Rect(i * 10.0, 0, i * 10.0 + 10, 10), s"R$i", "room")),
      (1 until n).map(i => Door(s"d$i", s"R${i - 1}", s"R$i", i * 10.0, 5)))
    assert(Complementor.mapPath(chain, flat, "R0", s"R${n - 1}").contains((1 until n - 1).map(i => s"R$i").toList))
  }

  /** The cost of the T4 workload's MAP path: the Mall, all 500 devices
    * gapped, the event model trained on a disjoint 100-device population. */
  test("mapPath's cost on the Mall equals a Bellman-Ford reference under the T4 knowledge") {
    val mall = Mall.dsm()
    val (model, _) = EventEditor.trainOnSimulation(spark, mall, SimConfig(nDevices = 100, seed = 77L), 0.2)
    val t4 = SimConfig(nDevices = 500, gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)
    val result = Translator.translate(spark, SynthIndoor.raw(spark, mall, t4), mall, model)
    val km = result.knowledge
    result.unpersist()
    val ids = mall.regions.map(_.id)
    def weight(from: String, to: String): Double =
      -math.log(math.max(km.prob(from, to, km.mass(from, mall.adjacentRegions(from))), 1e-12))
    val edges = ids.flatMap(u => mall.adjacentRegions(u).toSeq.map(v => (u, v, weight(u, v))))
    def bellmanFord(src: String): Map[String, Double] = {
      val dist = scala.collection.mutable.Map(ids.map(_ -> Double.PositiveInfinity): _*)
      dist(src) = 0.0
      for (_ <- 1 until ids.size; (u, v, w) <- edges) if (dist(u) + w < dist(v)) dist(v) = dist(u) + w
      dist.toMap
    }
    def cost(path: Seq[String]): Double =
      path.zip(path.tail).map { case (u, v) => weight(u, v) }.sum
    val rng = new scala.util.Random(4)
    val pairs = Seq.fill(200)((ids(rng.nextInt(ids.size)), ids(rng.nextInt(ids.size)))).filter { case (a, b) => a != b }
    assert(km.transitions.nonEmpty)
    pairs.groupBy(_._1).foreach { case (from, ps) =>
      val ref = bellmanFord(from)
      ps.foreach { case (_, to) =>
        val mids = Complementor.mapPath(mall, km, from, to)
        assert(mids.isDefined == ref(to).isFinite, s"$from -> $to")
        mids.foreach { m =>
          val c = cost(from +: m :+ to)
          assert(math.abs(c - ref(to)) <= 1e-9 * math.max(1.0, ref(to)), s"$from -> $to: $c vs ${ref(to)}")
        }
      }
    }
  }

  private def sem(seq: Int, region: String, t0: Long, t1: Long) =
    Semantic("dev", seq, PassBy, region, region, t0, t1, "annotated")

  test("small holes are left alone") {
    val out = Complementor.complementDevice(dsm, flat,
      Seq(sem(0, "A", 0, 100), sem(1, "B", 130, 200)))
    assert(out.size == 2)
    assert(out.forall(_.source == "annotated"))
  }

  test("a long hole across a two-hop gap gets an inferred bridge") {
    val out = Complementor.complementDevice(dsm, flat,
      Seq(sem(0, "A", 0, 100), sem(1, "D", 400, 500)))
    val inf = out.filter(_.source == "inferred")
    // Left extension (A), the bridging region, right extension (D).
    assert(inf.map(_.regionId).toList.head == "A")
    assert(inf.map(_.regionId).toList.last == "D")
    assert(inf.exists(s => s.regionId == "B" || s.regionId == "C"))
    assert(inf.forall(s => s.tStart > 100 && s.tEnd < 400))
  }

  test("inferred time ranges are ordered and inside the hole") {
    val km = KnowledgeModel(
      Map(("A", "C") -> 9L, ("C", "E") -> 9L),
      Map("C" -> 60.0, "E" -> 120.0), Map.empty)
    // Hole A -> E must bridge via C (and not B/D), with the bracketing
    // regions extended inward on both sides.
    val out = Complementor.complementDevice(dsm, km,
      Seq(sem(0, "A", 0, 100), sem(1, "E", 700, 800)))
    val inf = out.filter(_.source == "inferred")
    assert(inf.map(_.regionId) == Vector("A", "C", "E"))
    assert(inf.head.tStart == 101)
    assert(inf.last.tEnd < 700)
    inf.sliding(2).foreach {
      case Vector(x, y) => assert(x.tEnd < y.tStart)
      case _            => ()
    }
  }

  test("multi-hop inference: intermediates get transit time, endpoints the rest") {
    val km = KnowledgeModel(Map.empty, Map("B" -> 30.0, "E" -> 90.0), Map.empty)
    val out = Complementor.complementDevice(dsm, km,
      Seq(sem(0, "B", 0, 60), sem(1, "E", 1000, 1100)))
    // B -> E bridges via two intermediates (B-A-C-E or B-D-C-E).
    val inf = out.filter(_.source == "inferred")
    assert(inf.size == 4)
    assert(inf.head.regionId == "B" && inf.last.regionId == "E")
    assert(inf(2).regionId == "C")
    assert(inf.map(_.tStart).sliding(2).forall { case Vector(a, b) => a < b })
    // Intermediates are short transits; the extensions carry the bulk.
    val midTime = inf.slice(1, 3).map(_.duration).sum
    val extTime = inf.head.duration + inf.last.duration
    assert(extTime > midTime * 3, s"ext $extTime vs mid $midTime")
    // E (dwell 90) extends longer than B (dwell 30).
    assert(inf.last.duration > inf.head.duration)
  }

  test("dominant event from knowledge labels inferred intermediates") {
    val km = KnowledgeModel(Map.empty, Map.empty, Map("B" -> 0.9, "C" -> 0.0))
    val viaB = km.copy(transitions = Map(("A", "B") -> 99L, ("B", "D") -> 99L))
    val out = Complementor.complementDevice(dsm, viaB,
      Seq(sem(0, "A", 0, 100), sem(1, "D", 400, 500)))
    val mid = out.filter(s => s.source == "inferred" && s.regionId == "B")
    assert(mid.nonEmpty && mid.head.event == Stay)
    // Extensions inherit the bracketing semantics' own event.
    val ext = out.filter(s => s.source == "inferred" && s.regionId == "A")
    assert(ext.nonEmpty && ext.head.event == PassBy)
  }

  test("a gap inside one region extends that region across the hole") {
    val km = KnowledgeModel(Map.empty, Map.empty, Map.empty)
    val out = Complementor.complementDevice(dsm, km,
      Seq(Semantic("dev", 0, Stay, "A", "A", 0, 100, "annotated"),
          Semantic("dev", 1, Stay, "A", "A", 500, 600, "annotated")))
    val inf = out.filter(_.source == "inferred")
    assert(inf.nonEmpty)
    assert(inf.forall(s => s.regionId == "A" && s.event == Stay))
    assert(inf.map(_.duration).sum >= 380) // covers most of the 399 s hole
  }

  test("seqNo is renumbered contiguously after insertion") {
    val out = Complementor.complementDevice(dsm, flat,
      Seq(sem(0, "A", 0, 100), sem(1, "D", 400, 500), sem(2, "A", 900, 950)))
    assert(out.map(_.seqNo) == out.indices.toVector)
    assert(out.map(_.tStart) == out.map(_.tStart).sorted)
  }

  test("unreachable gap endpoints leave the hole open") {
    val dsm2 = new Dsm(dsm.regions :+ Region("Z", 0, Rect(50, 0, 60, 10), "Z", "room"), dsm.doors)
    val out = Complementor.complementDevice(dsm2, flat,
      Seq(sem(0, "A", 0, 100), Semantic("dev", 1, PassBy, "Z", "Z", 500, 600, "annotated")))
    assert(out.size == 2)
  }

  test("empty and singleton sequences pass through") {
    assert(Complementor.complementDevice(dsm, flat, Seq.empty).isEmpty)
    val one = Seq(sem(0, "A", 0, 100))
    assert(Complementor.complementDevice(dsm, flat, one) == one.toVector)
  }

  test("spark-level complement matches the device-level call") {
    import spark.implicits._
    val sems = Seq(sem(0, "A", 0, 100), sem(1, "D", 400, 500))
    val b = spark.sparkContext.broadcast(dsm)
    val bk = spark.sparkContext.broadcast(flat)
    val out = Complementor.complement(spark, sems.toDS(), b, bk).collect().sortBy(_.seqNo)
    assert(out.toVector == Complementor.complementDevice(dsm, flat, sems))
  }
}
