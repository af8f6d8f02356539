package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
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
  * prior needs to see every device. So a translation is one shuffle, of
  * [[PerDevice.tracks]]: each input partition sends one columnar track per
  * device it holds, into one partition per core. Each partition cleans and
  * annotates its devices and keeps the result as one compact
  * [[SemanticsBlock]]. The knowledge is merged from the blocks' per-device
  * summaries, and the complement runs over the same blocks, with no
  * further shuffle. The Viewer traces intermediate data through
  * [[Translator.Result]]. The layers' own Spark entry points
  * (`Cleaner.clean`, `Annotator.annotate`, ...) run each layer alone:
  * `Result.cleaned` is `Cleaner.clean`, and the benchmark's per-layer trace
  * (`--trace 1`) and the benches call them.
  */
object Translator {

  final case class Config(maxSpeed: Double = Cleaner.DefaultMaxSpeed,
                          annotator: Annotator.Config = Annotator.Config(),
                          gapThreshold: Long = Complementor.DefaultGapThreshold,
                          knowledgeAlpha: Double = 0.5)

  /** All intermediate artifacts of a translation task — what the Viewer
    * lets the analyst trace (raw/cleaned sequences, original and
    * complemented semantics). The annotated semantics are cached as
    * compact blocks, one per partition; `annotated` decodes them on each
    * action, and `semantics` complements them. `cleaned` is recomputed on
    * each action (the cleaned records are the same ones the semantics came
    * from: cleaning is deterministic). */
  final case class Result(cleaned: Dataset[CleanRecord],
                          annotated: Dataset[Semantic],
                          knowledge: Knowledge.KnowledgeModel,
                          semantics: Dataset[Semantic])(blocks: RDD[_], broadcasts: Seq[Broadcast[_]]) {

    /** Release the cached blocks and the DSM and knowledge broadcasts the
      * translation created. The Result's Datasets are unusable afterwards. */
    def unpersist(): Unit = {
      blocks.unpersist(blocking = true)
      broadcasts.foreach(_.destroy())
    }
  }

  /** Translate the selected raw positioning sequences into mobility
    * semantics sequences. The pass groups the records by device with
    * [[PerDevice.tracks]], cleans and annotates each device and caches
    * one [[SemanticsBlock]] per partition, named "translate: annotated
    * blocks" in Spark's storage status. The `collect` of the blocks'
    * knowledge summaries is the job that fills that cache; it and the
    * shuffle run under the job description "translate: pass + knowledge",
    * and the caller's description is restored afterwards (the job group is
    * left as it is). The complement is a `flatMap` over the cached blocks:
    * every device's semantics sit in the block of the partition it went
    * through.
    */
  def translate(spark: SparkSession, raw: Dataset[PosRecord], dsm: Dsm,
                model: EventModel, cfg: Config = Config()): Result = {
    import spark.implicits._
    val sc = spark.sparkContext
    val b = sc.broadcast(dsm)
    val caller = sc.getLocalProperty(JobDescription)
    sc.setJobDescription("translate: pass + knowledge")
    val (blocks, km) = try {
      val blocks = PerDevice.tracks(raw).mapPartitions { it =>
        val d = b.value
        Iterator(SemanticsBlock.encode(d, it.map { case (id, rs) =>
          id -> Annotator.annotateDevice(d, model, Cleaner.cleanDevice(d, rs, cfg.maxSpeed), cfg.annotator)
        }))
      }.setName("translate: annotated blocks").cache()
      val km = Summary.mergeAll(blocks.map { block =>
        Summary.mergeAll(block.devices(b.value).map { case (_, ss) => Summary.ofDevice(ss) })
      }.collect()).toModel(cfg.knowledgeAlpha)
      (blocks, km)
    } finally sc.setLocalProperty(JobDescription, caller)
    val bk = sc.broadcast(km)
    val annotated = blocks.flatMap(_.devices(b.value).flatMap(_._2))
    val semantics = blocks.flatMap(_.devices(b.value).flatMap { case (_, ss) =>
      Complementor.complementDevice(b.value, bk.value, ss, cfg.gapThreshold)
    })
    Result(Cleaner.clean(spark, raw, b, cfg.maxSpeed), annotated.toDS(), km, semantics.toDS())(blocks, Seq(b, bk))
  }

  /** The local property `SparkContext.setJobDescription` sets. */
  private val JobDescription = "spark.job.description"
}
