package repro.eval

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Schema._

/** Translation-quality metrics against the simulator's ground truth.
  *
  * The paper assesses translations visually in the Viewer; having a
  * simulator, we can score them. All metrics align predictions and truth
  * '''per second''': a semantics triplet covers every second of its
  * temporal annotation, so coverage-weighted accuracy falls out of a
  * (device, second) join — robust to boundary shifts, indifferent to how
  * either side splits its runs.
  */
object Metrics {

  /** Explode semantics into (device_id, sec, event, tag). Overlapping
    * triplets (annotated vs inferred edges) dedupe to one row per second,
    * annotated wins. */
  def perSecond(sem: DataFrame): DataFrame = {
    val w = Window.partitionBy("device_id", "sec").orderBy(col("source"), col("seqNo"))
    sem.select(
        col("deviceId").as("device_id"), col("event"), col("tag"),
        col("source"), col("seqNo"),
        explode(sequence(col("tStart"), col("tEnd"))).as("sec"))
      .withColumn("__rk", row_number().over(w))
      .filter(col("__rk") === 1)
      .select("device_id", "sec", "event", "tag", "source")
  }

  /** A confusion-style summary of event + region agreement.
    *
    * @param truthSeconds   #truth seconds considered
    * @param coveredSeconds #truth seconds covered by some prediction
    * @param eventCorrect   covered seconds with the right event
    * @param regionCorrect  covered seconds with the right region tag
    * @param bothCorrect    covered seconds with both right
    * @param prf            per-event (precision, recall, F1) over covered
    *                       seconds, for `stay` and `pass-by`
    */
  final case class Agreement(truthSeconds: Long, coveredSeconds: Long,
                             eventCorrect: Long, regionCorrect: Long, bothCorrect: Long,
                             prf: Map[String, (Double, Double, Double)]) {
    def coverage: Double       = ratio(coveredSeconds, truthSeconds)
    def eventAccuracy: Double  = ratio(eventCorrect, coveredSeconds)
    def regionAccuracy: Double = ratio(regionCorrect, coveredSeconds)
    def bothAccuracy: Double   = ratio(bothCorrect, coveredSeconds)
    private def ratio(a: Long, b: Long) = if (b == 0) 0.0 else a.toDouble / b
  }

  /** [[perSecond]] of `sem` with `event` and `tag` renamed to
    * `<side>_event` and `<side>_tag`. */
  private def perSecondSide(sem: Dataset[Semantic], side: String): DataFrame =
    perSecond(sem.toDF()).select(col("device_id"), col("sec"),
      col("event").as(s"${side}_event"), col("tag").as(s"${side}_tag"), col("source"))

  /** Score predicted semantics against ground-truth semantics with one
    * aggregate over the truth-left-join-prediction seconds. The per-event
    * (tp, fp, fn) conditions each compare `p_event`, which is null on an
    * uncovered second, so `count(when(...))` counts covered seconds only. */
  def agreement(spark: SparkSession, pred: Dataset[Semantic],
                truth: Dataset[Semantic]): Agreement = {
    val p = perSecondSide(pred, "p")
    val t = perSecondSide(truth, "t")
    val j = t.join(p, Seq("device_id", "sec"), "left")
    val events = Seq(Stay, PassBy)
    val perEvent = events.flatMap { e =>
      Seq(col("t_event") === e && col("p_event") === e,
          col("t_event") =!= e && col("p_event") === e,
          col("t_event") === e && col("p_event") =!= e)
    }.map(c => count(when(c, 1)))
    val seconds = Seq(
      sum(when(col("p_event").isNotNull, 1L).otherwise(0L)).as("covered"),
      sum(when(col("p_event") === col("t_event"), 1L).otherwise(0L)).as("event_ok"),
      sum(when(col("p_tag") === col("t_tag"), 1L).otherwise(0L)).as("region_ok"),
      sum(when(col("p_event") === col("t_event") && col("p_tag") === col("t_tag"), 1L)
        .otherwise(0L)).as("both_ok"))
    val row = j.agg(count(lit(1)).as("truth"), seconds ++ perEvent: _*).head()
    val prf = events.zipWithIndex.map { case (e, k) =>
      val tp = row.getLong(5 + 3 * k).toDouble
      val fp = row.getLong(6 + 3 * k).toDouble
      val fn = row.getLong(7 + 3 * k).toDouble
      val prec = if (tp + fp == 0) 0.0 else tp / (tp + fp)
      val rec  = if (tp + fn == 0) 0.0 else tp / (tp + fn)
      val f1   = if (prec + rec == 0) 0.0 else 2 * prec * rec / (prec + rec)
      e -> ((prec, rec, f1))
    }.toMap
    Agreement(row.getLong(0), row.getLong(1), row.getLong(2), row.getLong(3), row.getLong(4), prf)
  }

  /** Positioning-error statistics of a (cleaned or raw) record set against
    * the 1 Hz ground truth: records join truth on (device, ts). Returns
    * (n, mean error m, p95 error m, wrong-floor count); the error of every
    * joined record is one double, so they are collected and summed in
    * ascending order, and p95 is the nearest-rank percentile of the sorted
    * errors. Both are then functions of the records alone, not of the join
    * strategy or the partitioning. Mean and p95 are NaN when nothing joins. */
  final case class PosError(n: Long, meanErr: Double, p95Err: Double, wrongFloor: Long)

  def posError(spark: SparkSession, records: DataFrame, truth: Dataset[GtRecord]): PosError = {
    val t = truth.toDF().select(col("deviceId").as("device_id"), col("ts").as("t_ts"),
      col("x").as("t_x"), col("y").as("t_y"), col("floor").as("t_floor"))
    val r = records.select(col("deviceId").as("device_id"), col("ts").as("t_ts"),
      col("x"), col("y"), col("floor"))
    val rows = r.join(t, Seq("device_id", "t_ts"), "inner")
      .select(sqrt(pow(col("x") - col("t_x"), 2) + pow(col("y") - col("t_y"), 2)),
              col("floor") =!= col("t_floor"))
      .collect()
    val errs = rows.map(_.getDouble(0))
    java.util.Arrays.sort(errs)
    val n = errs.length
    if (n == 0) PosError(0, Double.NaN, Double.NaN, 0)
    else PosError(n, errs.sum / n, errs(math.ceil(0.95 * n).toInt - 1), rows.count(_.getBoolean(1)))
  }

  /** Gap-recovery score for the Complementor (T4): for each injected
    * detection gap, the truth seconds inside the gap are compared to the
    * inferred semantics covering them. Returns (gapTruthSeconds,
    * coveredByInferred, regionCorrect). */
  final case class GapRecovery(gapSeconds: Long, covered: Long, regionCorrect: Long) {
    def coverage: Double = if (gapSeconds == 0) 0.0 else covered.toDouble / gapSeconds
    def accuracy: Double = if (covered == 0) 0.0 else regionCorrect.toDouble / covered
  }

  def gapRecovery(spark: SparkSession, pred: Dataset[Semantic],
                  truth: Dataset[Semantic],
                  gaps: DataFrame /* device_id, g_start, g_end */): GapRecovery = {
    val t = perSecondSide(truth, "t").select("device_id", "sec", "t_tag")
    val inGap = t.join(gaps,
      t("device_id") === gaps("device_id") &&
        t("sec").between(col("g_start"), col("g_end")), "inner")
      .select(t("device_id"), col("sec"), col("t_tag"))
    val p = perSecondSide(pred, "p").filter(col("source") === "inferred")
      .select("device_id", "sec", "p_tag")
    val j = inGap.join(p, Seq("device_id", "sec"), "left")
    val row = j.agg(
      count(lit(1)),
      sum(when(col("p_tag").isNotNull, 1L).otherwise(0L)),
      sum(when(col("p_tag") === col("t_tag"), 1L).otherwise(0L))).head()
    GapRecovery(row.getLong(0), row.getLong(1), row.getLong(2))
  }
}
