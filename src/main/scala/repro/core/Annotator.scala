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

  /** Annotate one device's cleaned, time-sorted records. */
  def annotateDevice(dsm: Dsm, model: EventModel, records: Seq[CleanRecord],
                     cfg: Config = Config()): Vector[Semantic] = {
    val snippets = Splitter.split(dsm, records, cfg.eps, cfg.minDur, cfg.sessionGap)
    val raw = snippets.flatMap { s =>
      SpatialMatcher.matchSnippet(dsm, s).map { region =>
        val event = model.annotate(Features.ofSnippet(s))
        Semantic(s.deviceId, s.snippetId, event, region.tag, region.id,
                 s.tStart, s.tEnd, source = "annotated")
      }
    }
    // Merge adjacent semantics with identical (event, region) and renumber.
    val merged = raw.foldLeft(Vector.empty[Semantic]) {
      case (acc, s) if acc.nonEmpty &&
          acc.last.event == s.event && acc.last.regionId == s.regionId &&
          s.tStart - acc.last.tEnd <= cfg.sessionGap =>
        acc.init :+ acc.last.copy(tEnd = s.tEnd)
      case (acc, s) => acc :+ s
    }
    merged.zipWithIndex.map { case (s, i) => s.copy(seqNo = i) }
  }

  /** Annotate all devices' cleaned records; device-parallel through its
    * own `groupByKey`. */
  def annotate(spark: SparkSession, cleaned: Dataset[CleanRecord],
               dsm: Broadcast[Dsm], model: EventModel,
               cfg: Config = Config()): Dataset[Semantic] = {
    import spark.implicits._
    cleaned.groupByKey(_.deviceId).flatMapGroups { (_, it) =>
      annotateDevice(dsm.value, model, it.toVector.sortBy(_.ts), cfg)
    }
  }
}
