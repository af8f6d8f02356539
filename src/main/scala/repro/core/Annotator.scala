package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Schema._
import repro.indoor.Dsm

/** The Mobility Semantics Annotator (Translator component 2).
  *
  * Reads the cleaned sequence and "extracts a sequence of mobility
  * semantics by matching proper annotations according to the relevant
  * contexts": density-based splitting into snippets, the learned event
  * model for the event + temporal annotations, the DSM semantic regions
  * for the spatial annotation. Consecutive semantics that agree on both
  * event and region are merged (they describe one continued behavior split
  * only by the sampling). A snippet on a floor the DSM does not model
  * matches no region and yields no semantics.
  *
  * [[annotateTrack]] is the one implementation: it reads a
  * [[CleanTrack]]'s columns and the region index the Cleaner carried with
  * each record, and builds no `CleanRecord` or `Snippet`.
  * `Translator.translate` calls it on each device right after cleaning it,
  * in one pass; [[annotateDevice]] is its form over a `Seq` of records
  * (which it locates with `Dsm.regionIdxAtSnapped`), and [[annotate]] runs
  * that alone over cleaned records, device-parallel.
  */
object Annotator {

  /** Splitting/annotation knobs; defaults follow [[Splitter]]. */
  final case class Config(eps: Double = Splitter.DefaultEps,
                          minDur: Long = Splitter.DefaultMinDur,
                          sessionGap: Long = Splitter.DefaultSessionGap)

  /** Annotate one device's cleaned, time-sorted records: [[annotateTrack]]
    * of their columns, each record located with the Cleaner's rule. */
  def annotateDevice(dsm: Dsm, model: EventModel, records: Seq[CleanRecord],
                     cfg: Config = Config()): Vector[Semantic] =
    if (records.isEmpty) Vector.empty
    else annotateTrack(dsm, model, records.head.deviceId, CleanTrack.of(dsm, records), cfg)

  /** Annotate one device's cleaned track, reading each record's region
    * from the track. A device with no on-map record (the Cleaner keeps such
    * a device's records as they are: an unmodelled floor, a non-finite
    * coordinate) matches no region and yields no semantics; it is not
    * split, because a non-finite coordinate bounds no snippet. */
  private[repro] def annotateTrack(dsm: Dsm, model: EventModel, deviceId: String, t: CleanTrack,
                                   cfg: Config = Config()): Vector[Semantic] = {
    if (!t.region.exists(_ >= 0)) return Vector.empty
    val cuts = Splitter.cut(t, cfg.eps, cfg.minDur, cfg.sessionGap)
    // Adjacent semantics with identical (event, region) within a session
    // gap merge into `open`, which is emitted when the next one differs.
    val out = Vector.newBuilder[Semantic]
    var open: Semantic = null
    var seqNo = 0
    def emit(): Unit = if (open != null) { out += open.copy(seqNo = seqNo); seqNo += 1 }
    var k = 0
    while (k < cuts.size) {
      val from = cuts.bounds(k)
      val until = cuts.bounds(k + 1)
      val r = SpatialMatcher.matchRange(dsm, t.region, from, until)
      if (r >= 0) {
        val region = dsm.regions(r)
        val event = model.annotate(Features.of(deviceId, k, t.ts, t.x, t.y, from, until))
        val tStart = t.ts(from)
        val tEnd = t.ts(until - 1)
        if (open != null && open.event == event && open.regionId == region.id &&
            tStart - open.tEnd <= cfg.sessionGap) {
          open = open.copy(tEnd = tEnd)
        } else {
          emit()
          open = Semantic(deviceId, k, event, region.tag, region.id, tStart, tEnd, source = "annotated")
        }
      }
      k += 1
    }
    emit()
    out.result()
  }

  /** Annotate all devices' cleaned records; device-parallel through its
    * own shuffle on the `deviceId` column. */
  def annotate(spark: SparkSession, cleaned: Dataset[CleanRecord],
               dsm: Broadcast[Dsm], model: EventModel,
               cfg: Config = Config()): Dataset[Semantic] = {
    import spark.implicits._
    PerDevice.flatMap(cleaned)(_.deviceId)(rs => annotateDevice(dsm.value, model, rs.sortBy(_.ts), cfg))
  }
}
