package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Knowledge.KnowledgeModel
import repro.core.Schema._
import repro.indoor.Dsm
import scala.collection.mutable

/** The Mobility Semantics Complementor (Translator component 3).
  *
  * "Recovers the missing mobility semantics between two consecutive yet
  * temporally far apart mobility semantics": when the positioning system
  * lost a device for a while, the annotated sequence has a hole. By
  * maximum-a-posteriori estimation over the prior mobility knowledge, the
  * most likely region path bridging the two observed semantics is inferred
  * — constrained to the DSM's region-adjacency topology (you cannot
  * transition between rooms that share no door chain).
  *
  * MAP search: maximize ∏ P(r_{k+1} | r_k) over paths from the gap's left
  * region to its right region ⇔ minimize ∑ -log P — a shortest path with
  * positive weights, found with Dijkstra over the adjacency graph.
  *
  * Time allocation reflects what a hole physically contains: mostly the
  * bracketing behaviors themselves. Each intermediate region gets its
  * expected '''transit time''' (crossing distance at walking pace); the
  * remainder of the hole extends the two observed semantics inward,
  * weighted by their regions' expected dwell from the knowledge. All
  * recovered entries carry `source = "inferred"`; intermediates take the
  * region's dominant event from the knowledge.
  */
object Complementor {

  /** A hole longer than this between consecutive semantics is a
    * discontinuity worth complementing (s). */
  val DefaultGapThreshold = 60L

  /** Assumed walking pace for transit-time estimates (m/s). */
  val WalkPace = 1.2

  /** Infer the MAP region path from → to (exclusive of endpoints).
    * Returns None when the regions are not connected; Some(Nil) when they
    * are identical or adjacent (nothing between them). The search runs on
    * region indices over `km`'s [[Graph]] on `dsm`.
    */
  def mapPath(dsm: Dsm, km: KnowledgeModel, from: String, to: String): Option[List[String]] =
    if (from == to) Some(Nil)
    else (dsm.regionIndex.get(from), dsm.regionIndex.get(to)) match {
      case (Some(f), Some(t)) => km.graphOn(dsm).path(f, t).map(_.map(dsm.regions(_).id))
      case _                  => None
    }

  /** The MAP search's graph: each region's neighbours in the iteration
    * order of `dsm.adjacentRegions`, and the weight `-log P(next | cur)` of
    * each edge, `P` smoothed over the region's neighbours as
    * `KnowledgeModel.prob` smooths it. Built once per knowledge and DSM (see
    * `KnowledgeModel.graphOn`). */
  private[core] final class Graph(val dsm: Dsm, km: KnowledgeModel) {
    private val next: Array[Array[Int]] =
      dsm.regions.map(r => dsm.adjacentRegions(r.id).iterator.map(dsm.regionIndex).toArray).toArray
    private val weight: Array[Array[Double]] = dsm.regions.indices.map { r =>
      val from = dsm.regions(r).id
      val mass = km.mass(from, dsm.adjacentRegions(from))
      next(r).map(n => -math.log(math.max(km.prob(from, dsm.regions(n).id, mass), 1e-12)))
    }.toArray

    /** Dijkstra over the weights, from region index `from` to `to` (which
      * differ): the intermediate regions of the cheapest path, None when
      * `to` is unreachable. The queue receives the same nodes, with the
      * same costs, in the same order as the string-keyed search did
      * (neighbours in `adjacentRegions` order), so ties in cost break the
      * same way. */
    def path(from: Int, to: Int): Option[List[Int]] = {
      val pq = mutable.PriorityQueue(Node(0.0, from))
      val best = Array.fill(next.length)(Double.MaxValue)
      best(from) = 0.0
      val parent = new Array[Int](next.length)
      while (pq.nonEmpty) {
        val Node(cost, cur) = pq.dequeue()
        if (cur == to) {
          // Reconstruct, drop endpoints.
          var path = List.empty[Int]
          var c = to
          while (c != from) { path = c :: path; c = parent(c) }
          return Some(path.dropRight(1))
        }
        if (cost <= best(cur)) {
          val ns = next(cur)
          val ws = weight(cur)
          var k = 0
          while (k < ns.length) {
            val nxt = ns(k)
            val nc = cost + ws(k)
            if (nc < best(nxt)) {
              best(nxt) = nc; parent(nxt) = cur
              pq.enqueue(Node(nc, nxt))
            }
            k += 1
          }
        }
      }
      None
    }
  }

  /** A queued region and its path cost; the queue yields the cheapest. */
  private final case class Node(cost: Double, region: Int)
  private implicit val NodeOrder: Ordering[Node] = Ordering.by((n: Node) => -n.cost)

  /** Expected seconds to cross a region (half-perimeter walk at pace). */
  def transitSeconds(dsm: Dsm, regionId: String): Double = {
    val r = dsm.regionById(regionId).rect
    math.max(3.0, (r.width + r.height) / 2 / WalkPace)
  }

  /** The inferred semantics filling one hole between `a` and `b`, or empty
    * when the endpoints are topologically unconnected. */
  private def fillHole(dsm: Dsm, km: KnowledgeModel, a: Semantic, b: Semantic): Vector[Semantic] = {
    val hole = b.tStart - a.tEnd - 1
    mapPath(dsm, km, a.regionId, b.regionId) match {
      case None => Vector.empty
      case Some(mids) =>
        // Transit budget for the intermediates, scaled down if the hole is
        // shorter than a plausible walk-through.
        val transits = mids.map(r => transitSeconds(dsm, r))
        val scale = if (transits.isEmpty) 1.0
                    else math.min(1.0, hole.toDouble / transits.sum)
        val midDur = transits.map(t => math.max(1L, math.round(t * scale)))
        val leftover = math.max(0L, hole - midDur.sum)
        // Extend the bracketing semantics into the hole, dwell-weighted.
        val wa = math.max(1.0, km.expectedDwell(a.regionId))
        val wb = math.max(1.0, km.expectedDwell(b.regionId))
        val extA = math.round(leftover * wa / (wa + wb))
        val extB = leftover - extA

        val out = Vector.newBuilder[Semantic]
        var t = a.tEnd
        def emit(regionId: String, event: String, dur: Long): Unit = if (dur >= 1) {
          val end = math.min(b.tStart - 1, t + dur)
          if (end > t) {
            out += Semantic(a.deviceId, -1, event, dsm.regionById(regionId).tag,
                            regionId, t + 1, end, source = "inferred")
            t = end
          }
        }
        emit(a.regionId, a.event, extA)
        mids.zip(midDur).foreach { case (r, d) => emit(r, km.dominantEvent(r), d) }
        emit(b.regionId, b.event, extB)
        out.result()
    }
  }

  /** Complement one device's annotated semantics (sorted by seqNo). */
  def complementDevice(dsm: Dsm, km: KnowledgeModel, semantics: Seq[Semantic],
                       gapThreshold: Long = DefaultGapThreshold): Vector[Semantic] = {
    val sorted = semantics.sortBy(_.tStart).toVector
    if (sorted.size < 2) return sorted
    val out = Vector.newBuilder[Semantic]
    sorted.sliding(2).foreach {
      case Vector(a, b) =>
        out += a
        if (b.tStart - a.tEnd > gapThreshold)
          out ++= fillHole(dsm, km, a, b)
      case _ => ()
    }
    out += sorted.last
    out.result().sortBy(_.tStart).zipWithIndex.map { case (s, i) => s.copy(seqNo = i) }
  }

  /** Complement all devices' annotated semantics, device-parallel through
    * its own shuffle on the `deviceId` column; knowledge and DSM ride a
    * broadcast. `Translator.translate` instead calls [[complementDevice]]
    * on the partitions of its per-device pass, with no shuffle. */
  def complement(spark: SparkSession, semantics: Dataset[Semantic],
                 dsm: Broadcast[Dsm], km: Broadcast[KnowledgeModel],
                 gapThreshold: Long = DefaultGapThreshold): Dataset[Semantic] = {
    import spark.implicits._
    PerDevice.flatMap(semantics)(_.deviceId)(complementDevice(dsm.value, km.value, _, gapThreshold))
  }
}
