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
  * `Translator.translate` calls [[annotateDevice]] on each device right
  * after cleaning it, in one pass; [[annotate]] runs it alone over cleaned
  * records, device-parallel.
  */
object Annotator {

  /** Splitting/annotation knobs; defaults follow [[Splitter]]. */
  final case class Config(eps: Double = Splitter.DefaultEps,
                          minDur: Long = Splitter.DefaultMinDur,
                          sessionGap: Long = Splitter.DefaultSessionGap)

  /** Annotate one device's cleaned, time-sorted records. A device with no
    * on-map record (the Cleaner keeps such a device's records as they are:
    * an unmodelled floor, a non-finite coordinate) matches no region and
    * yields no semantics; it is not split, because a non-finite coordinate
    * bounds no snippet. */
  def annotateDevice(dsm: Dsm, model: EventModel, records: Seq[CleanRecord],
                     cfg: Config = Config()): Vector[Semantic] = {
    if (!records.exists(r => dsm.regionAtSnapped(r.point).isDefined)) return Vector.empty
    val snippets = Splitter.split(dsm, records, cfg.eps, cfg.minDur, cfg.sessionGap)
    // Adjacent semantics with identical (event, region) within a session
    // gap merge into `open`, which is emitted when the next one differs.
    val out = Vector.newBuilder[Semantic]
    var open: Semantic = null
    var seqNo = 0
    def emit(): Unit = if (open != null) { out += open.copy(seqNo = seqNo); seqNo += 1 }
    snippets.foreach { s =>
      SpatialMatcher.matchSnippet(dsm, s).foreach { region =>
        val event = model.annotate(Features.ofSnippet(s))
        if (open != null && open.event == event && open.regionId == region.id &&
            s.tStart - open.tEnd <= cfg.sessionGap) {
          open = open.copy(tEnd = s.tEnd)
        } else {
          emit()
          open = Semantic(s.deviceId, s.snippetId, event, region.tag, region.id,
                          s.tStart, s.tEnd, source = "annotated")
        }
      }
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
