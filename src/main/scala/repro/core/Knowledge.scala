package repro.core

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import repro.core.Schema._
import repro.indoor.Dsm

/** Knowledge construction (Complementing layer, step 1).
  *
  * "Aggregates the mobility semantics already annotated to build the prior
  * mobility knowledge that captures the transition probabilities between
  * semantic regions." Each device's annotated sequence yields a small
  * [[Summary]] (transition counts, per-region dwell sums and event counts);
  * summaries merge by addition, in any order, into a serializable
  * [[KnowledgeModel]] that the Complementor broadcasts for per-gap MAP
  * inference. The test tree's `SqlReference.transitionCounts` and
  * `regionStats` are the same aggregates in SQL, checked against DuckDB.
  */
object Knowledge {

  /** Prior mobility knowledge over semantic regions.
    *
    * @param transitions observed counts regionId → regionId over
    *                    consecutive annotated semantics
    * @param dwell       mean annotated duration (s) per regionId
    * @param stayShare   fraction of a region's semantics annotated `stay`
    * @param alpha       Laplace smoothing mass for unseen transitions
    */
  final case class KnowledgeModel(transitions: Map[(String, String), Long],
                                  dwell: Map[String, Double],
                                  stayShare: Map[String, Double],
                                  alpha: Double = 0.5) extends Serializable {

    /** Smoothed P(to | from) restricted to `candidates` (the topologically
      * reachable successors — a transition must respect the space). */
    def prob(from: String, to: String, candidates: Set[String]): Double =
      prob(from, to, mass(from, candidates))

    /** The denominator of [[prob]] for `from` and `candidates`: their
      * observed transitions (an exact integer sum) plus the smoothing. */
    def mass(from: String, candidates: Set[String]): Double =
      candidates.iterator.map(c => transitions.getOrElse((from, c), 0L)).sum + alpha * candidates.size

    /** [[prob]] given the candidates' [[mass]]. */
    def prob(from: String, to: String, mass: Double): Double =
      (transitions.getOrElse((from, to), 0L) + alpha) / mass

    /** Expected dwell in a region (s); global default when unseen. */
    def expectedDwell(regionId: String): Double = dwell.getOrElse(regionId, defaultDwell)

    @transient private lazy val defaultDwell: Double =
      if (dwell.isEmpty) 30.0 else dwell.values.sum / dwell.size

    /** Most likely event annotation for a semantics inferred in a region. */
    def dominantEvent(regionId: String): String =
      if (stayShare.getOrElse(regionId, 0.0) >= 0.5) Stay else PassBy

    /** The last graph `graphOn` built, and the DSM it was built on. */
    @transient @volatile private var graph: Complementor.Graph = _

    /** `Complementor.mapPath`'s graph of this knowledge on `dsm`: built on
      * the first call for `dsm` and kept, so each JVM builds it once per
      * broadcast model and DSM. */
    private[core] def graphOn(dsm: Dsm): Complementor.Graph = {
      val g = graph
      if (g != null && (g.dsm eq dsm)) g
      else { val built = new Complementor.Graph(dsm, this); graph = built; built }
    }
  }

  /** Per-region tallies: summed annotated duration (s), `stay` semantics,
    * and all semantics. */
  final case class RegionTally(dwellSum: Long, stays: Long, n: Long) {
    def +(o: RegionTally): RegionTally = RegionTally(dwellSum + o.dwellSum, stays + o.stays, n + o.n)
  }

  /** The knowledge contributed by a set of devices. Merging is addition, so
    * summaries of disjoint device sets merge in any order to one model. */
  final case class Summary(transitions: Map[(String, String), Long],
                           regions: Map[String, RegionTally]) {

    def merge(o: Summary): Summary =
      Summary(add(transitions, o.transitions)(_ + _), add(regions, o.regions)(_ + _))

    /** The model: the same numbers as `SqlReference.transitionCounts` and
      * `regionStats` (Spark averages integers in an exact double sum). */
    def toModel(alpha: Double): KnowledgeModel =
      KnowledgeModel(transitions,
                     regions.map { case (r, t) => r -> t.dwellSum.toDouble / t.n },
                     regions.map { case (r, t) => r -> t.stays.toDouble / t.n },
                     alpha)
  }

  object Summary {
    val empty: Summary = Summary(Map.empty, Map.empty)

    val encoder: Encoder[Summary] = Encoders.javaSerialization[Summary]

    /** One device's semantics, in any order: transitions between
      * consecutive semantics by `seqNo`, self-transitions excluded. */
    def ofDevice(semantics: Seq[Semantic]): Summary = {
      val seq = semantics.sortBy(_.seqNo)
      val moves = seq.zip(seq.drop(1))
        .collect { case (a, b) if a.regionId != b.regionId => (a.regionId, b.regionId) }
      Summary(moves.groupMapReduce(identity)(_ => 1L)(_ + _),
              seq.groupMapReduce(_.regionId)(s =>
                RegionTally(s.tEnd - s.tStart, if (s.event == Stay) 1L else 0L, 1L))(_ + _))
    }

    def mergeAll(ss: IterableOnce[Summary]): Summary = ss.iterator.foldLeft(empty)(_ merge _)
  }

  /** Key-wise sum of two maps, folding the smaller into the larger. */
  private def add[K, V](a: Map[K, V], b: Map[K, V])(plus: (V, V) => V): Map[K, V] = {
    val (big, small) = if (a.size >= b.size) (a, b) else (b, a)
    small.foldLeft(big) { case (m, (k, v)) => m.updated(k, m.get(k).fold(v)(plus(_, v))) }
  }

  /** Build the broadcastable model from annotated semantics: one
    * [[Summary]] per device, merged. */
  def build(spark: SparkSession, semantics: Dataset[Semantic], alpha: Double = 0.5): KnowledgeModel =
    Summary.mergeAll(PerDevice.flatMap(semantics)(_.deviceId) { ss =>
      Iterator(Summary.ofDevice(ss))
    }(Summary.encoder).collect()).toModel(alpha)
}
