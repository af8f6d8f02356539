package repro

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Schema._

/** Relational references for the per-device layers: the same numbers as
  * the program computes, as window and aggregate SQL that the DuckDB
  * [[Oracle]] can check. The tests compare the program to them, and T2's
  * CleaningBench reports its speed-violation and repair rows from them.
  */
object SqlReference {

  /** Transition counts between consecutive semantics, as a DataFrame
    * (from_region, to_region, n); `Knowledge.Summary` counts the same.
    * Self-transitions are excluded (merged semantics never repeat a region
    * back-to-back, and a transition models movement between regions).
    */
  def transitionCounts(semantics: DataFrame): DataFrame = {
    val w = Window.partitionBy("deviceId").orderBy("seqNo")
    semantics
      .withColumn("to_region", lead("regionId", 1).over(w))
      .filter(col("to_region").isNotNull && col("to_region") =!= col("regionId"))
      .groupBy(col("regionId").as("from_region"), col("to_region"))
      .agg(count(lit(1)).as("n"))
  }

  /** Per-region dwell mean and stay share (event distribution). */
  def regionStats(semantics: DataFrame): DataFrame =
    semantics.groupBy(col("regionId"))
      .agg(avg(col("tEnd") - col("tStart")).as("mean_dwell"),
           avg(when(col("event") === Stay, 1.0).otherwise(0.0)).as("stay_share"))

  /** Consecutive-pair speeds per device using straight-line (Euclidean)
    * displacement — the DSM-free lower bound of the walking speed. Columns:
    * device_id, ts, prev_ts, euclid_speed (null for each device's first
    * record or zero/negative dt). Intra-floor only: a floor change makes
    * planar displacement meaningless, so speed is null there too.
    */
  def euclidSpeeds(raw: DataFrame): DataFrame = {
    val w = Window.partitionBy("deviceId").orderBy("ts", "floor", "x", "y")
    raw
      .withColumn("prev_ts", lag("ts", 1).over(w))
      .withColumn("prev_x", lag("x", 1).over(w))
      .withColumn("prev_y", lag("y", 1).over(w))
      .withColumn("prev_floor", lag("floor", 1).over(w))
      .withColumn("euclid_speed",
        when(col("prev_ts").isNotNull && col("ts") > col("prev_ts") &&
             col("floor") === col("prev_floor"),
          sqrt(pow(col("x") - col("prev_x"), 2) + pow(col("y") - col("prev_y"), 2)) /
            (col("ts") - col("prev_ts")))
          .otherwise(lit(null)))
      .select(col("deviceId").as("device_id"), col("ts"), col("prev_ts"), col("euclid_speed"))
  }

  /** Cleaning-quality statistics for T2: per-kind repair counts. */
  def repairStats(cleaned: Dataset[CleanRecord]): DataFrame =
    cleaned.toDF().groupBy("repair").agg(count(lit(1)).as("n")).orderBy("repair")
}
