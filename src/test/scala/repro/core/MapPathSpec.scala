package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Knowledge.{KnowledgeModel, Summary}
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.Dsm
import repro.ml.LogisticRegression
import scala.collection.mutable

/** `Complementor.mapPath`, which searches region indices over a graph built
  * once per knowledge and DSM, against the string-keyed search it replaced,
  * kept here verbatim as the reference. Paths must be equal on every
  * ordered pair of the Mall's regions: under a trained knowledge, and under
  * one with no transitions, where every edge out of a region weighs the
  * same and the queue's tie order decides. */
class MapPathSpec extends AnyFunSuite {

  /** The string-keyed Dijkstra that preceded the index graph. */
  private object Ref {
    def mapPath(dsm: Dsm, km: KnowledgeModel, from: String, to: String): Option[List[String]] = {
      if (from == to) return Some(Nil)
      final case class Node(cost: Double, region: String)
      implicit val ord: Ordering[Node] = Ordering.by((n: Node) => -n.cost)
      val pq = mutable.PriorityQueue(Node(0.0, from))
      val best = mutable.Map(from -> 0.0)
      val parent = mutable.Map.empty[String, String]
      while (pq.nonEmpty) {
        val Node(cost, cur) = pq.dequeue()
        if (cur == to) {
          var path = List.empty[String]
          var c = to
          while (c != from) { path = c :: path; c = parent(c) }
          return Some(path.dropRight(1))
        }
        if (cost <= best.getOrElse(cur, Double.MaxValue)) {
          val nexts = dsm.adjacentRegions(cur)
          val mass = km.mass(cur, nexts)
          nexts.foreach { nxt =>
            val p = km.prob(cur, nxt, mass)
            val nc = cost - math.log(math.max(p, 1e-12))
            if (nc < best.getOrElse(nxt, Double.MaxValue)) {
              best(nxt) = nc; parent(nxt) = cur
              pq.enqueue(Node(nc, nxt))
            }
          }
        }
      }
      None
    }
  }

  private lazy val dsm = Mall.dsm()

  /** The knowledge of a dirty simulated population with a hole in every
    * device, annotated by a model fitted to its first devices' snippets. */
  private lazy val trained: KnowledgeModel = {
    val cfg = SimConfig(nDevices = 30, floorErrProb = 0.08, outlierProb = 0.05,
                        gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)
    val cleaned = (0 until cfg.nDevices).map(i => Cleaner.cleanDevice(dsm, SynthIndoor.simulate(dsm, cfg, i).raw))
    val train = cleaned.take(6).flatMap(Splitter.split(dsm, _))
    val model = EventModel(LogisticRegression.fit(train.map(Features.ofSnippet(_).vector),
                                                  train.map(s => if (s.dense) 1 else 0)))
    Summary.mergeAll(cleaned.map(c => Summary.ofDevice(Annotator.annotateDevice(dsm, model, c)))).toModel(0.5)
  }

  private def everyPair(km: KnowledgeModel): Unit = {
    val ids = dsm.regions.map(_.id)
    var connected = 0
    for (from <- ids; to <- ids) {
      val got = Complementor.mapPath(dsm, km, from, to)
      assert(got == Ref.mapPath(dsm, km, from, to), s"$from -> $to")
      if (got.exists(_.nonEmpty)) connected += 1
    }
    assert(connected > ids.size, "paths with intermediate regions")
  }

  test("mapPath equals the string-keyed reference on every ordered region pair, trained knowledge") {
    assert(trained.transitions.size > 50)
    everyPair(trained)
  }

  test("mapPath equals the string-keyed reference on every ordered region pair, no transitions") {
    everyPair(KnowledgeModel(Map.empty, Map.empty, Map.empty))
  }

  test("mapPath of a region the DSM does not model is None, unless both ends are the same") {
    val km = KnowledgeModel(Map.empty, Map.empty, Map.empty)
    val r = dsm.regions.head.id
    assert(Complementor.mapPath(dsm, km, "nowhere", r).isEmpty)
    assert(Complementor.mapPath(dsm, km, r, "nowhere").isEmpty)
    assert(Complementor.mapPath(dsm, km, "nowhere", "nowhere").contains(Nil))
  }
}
