package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Knowledge.Summary
import repro.core.Schema._
import repro.indoor.Dsm

/** The Translator backend: the three-layer framework end-to-end.
  *
  * "The framework takes each individual positioning sequence as input and
  * generates the corresponding mobility semantics sequence", processed
  * through Cleaning → Annotation → Complementing "without manual
  * interventions". Each layer is a per-device function; only the knowledge
  * prior needs to see every device. So a translation is one shuffle on
  * the `deviceId` column, after which each device's rows are one
  * consecutive run that is cleaned and annotated; the knowledge is merged
  * from per-device summaries, and the complement runs on the partitions
  * that shuffle produced, one per core. The layers' own Spark entry
  * points (`Cleaner.clean`, `Annotator.annotate`, ...) stay available for
  * the Viewer to trace intermediate data.
  */
object Translator {

  final case class Config(maxSpeed: Double = Cleaner.DefaultMaxSpeed,
                          annotator: Annotator.Config = Annotator.Config(),
                          gapThreshold: Long = Complementor.DefaultGapThreshold,
                          knowledgeAlpha: Double = 0.5)

  /** All intermediate artifacts of a translation task — what the Viewer
    * lets the analyst trace (raw/cleaned sequences, original and
    * complemented semantics). `annotated` is cached; `cleaned` and
    * `semantics` are recomputed on each action (the cleaned records are
    * the same ones the semantics came from: cleaning is deterministic). */
  final case class Result(cleaned: Dataset[CleanRecord],
                          annotated: Dataset[Semantic],
                          knowledge: Knowledge.KnowledgeModel,
                          semantics: Dataset[Semantic])(broadcasts: Seq[Broadcast[_]]) {

    /** Release the cache and the DSM and knowledge broadcasts the
      * translation created. The Result's Datasets are unusable afterwards. */
    def unpersist(): Unit = {
      annotated.unpersist(blocking = true)
      broadcasts.foreach(_.destroy())
    }
  }

  /** Translate the selected raw positioning sequences into mobility
    * semantics sequences. One pass shuffles on the `deviceId` column,
    * cleans and annotates each device's consecutive run of rows, caches the
    * annotated semantics and returns one knowledge [[Knowledge.Summary]]
    * per partition; no further shuffle follows, because every device's
    * semantics sit in the partition its run went through.
    *
    * The pass is coalesced to at most one partition per core before the
    * cache. Adaptive execution would merge the small shuffle partitions
    * itself, but it may not change the partitioning of a plan that is
    * cached, so without the coalesce the pass and both passes over the
    * cache (knowledge and complement) each run one tiny task per shuffle
    * partition.
    */
  def translate(spark: SparkSession, raw: Dataset[PosRecord], dsm: Dsm,
                model: EventModel, cfg: Config = Config()): Result = {
    import spark.implicits._
    val b = spark.sparkContext.broadcast(dsm)
    val annotated = PerDevice.flatMap(raw)(_.deviceId) { rs =>
      Annotator.annotateDevice(b.value, model, Cleaner.cleanDevice(b.value, rs, cfg.maxSpeed), cfg.annotator)
    }.coalesce(spark.sparkContext.defaultParallelism).cache()
    val km = Summary.mergeAll(annotated.mapPartitions { it =>
      Iterator(Summary.mergeAll(PerDevice.runs(it)(_.deviceId).map(Summary.ofDevice)))
    }(Summary.encoder).collect()).toModel(cfg.knowledgeAlpha)
    val bk = spark.sparkContext.broadcast(km)
    val semantics = annotated.mapPartitions { it =>
      PerDevice.runs(it)(_.deviceId)
        .flatMap(ss => Complementor.complementDevice(b.value, bk.value, ss, cfg.gapThreshold))
    }
    Result(Cleaner.clean(spark, raw, b, cfg.maxSpeed), annotated, km, semantics)(Seq(b, bk))
  }
}
