package repro.config

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.indoor.Geometry.Rect

/** Selection rules for the Data Selector (Configurator component 1).
  *
  * The paper: "offers users a set of configurable and combinable rules to
  * select the (device) positioning sequences of particular interest.
  * Typical rules include device ID pattern, spatial range, temporal range,
  * positioning frequency, and periodic pattern."
  *
  * Rules come in two shapes:
  *  - '''record rules''' restrict which records are kept (temporal range);
  *  - '''sequence rules''' decide which whole device sequences qualify
  *    (a sequence qualifies if its records satisfy the rule's aggregate
  *    predicate) — e.g. "appears on the ground floor", "lasts more than
  *    one hour".
  *
  * Everything compiles to DataFrame expressions so selection is a single
  * distributed query, and it is SQL-expressible for the DuckDB oracle.
  */
sealed trait SelectRule

/** Keep devices whose id matches `regex` (e.g. the demo's `3a.*.14`). */
final case class DeviceIdPattern(regex: String) extends SelectRule

/** Keep records inside `[t0, t1]` (epoch s, inclusive). */
final case class TemporalRange(t0: Long, t1: Long) extends SelectRule

/** Keep devices that appear inside `rect` on `floor` at least once. */
final case class SpatialRange(floor: Int, rect: Rect) extends SelectRule

/** Keep devices whose sequence spans at least `seconds`. */
final case class MinDuration(seconds: Long) extends SelectRule

/** Keep devices with at least `recordsPerMinute` average sampling rate
  * (positioning-frequency rule). */
final case class MinFrequency(recordsPerMinute: Double) extends SelectRule

/** Keep devices observed on at least `days` distinct days (periodic
  * pattern — e.g. a mall employee appearing daily). */
final case class PeriodicPattern(days: Int) extends SelectRule

/** Keep devices whose records all lie within daily opening hours
  * `[openHour, closeHour)` UTC (the walkthrough's "operating hours
  * 10:00 AM – 10:00 PM" selection). */
final case class OperatingHours(openHour: Int, closeHour: Int) extends SelectRule

object DataSelector {

  /** Seconds-of-day expression for a timestamp column. */
  private def secOfDay(ts: Column): Column = pmod(ts, lit(86400L))

  /** Apply combinable rules to a raw positioning DataFrame with columns
    * (deviceId, ts, x, y, floor). Record rules filter rows first; sequence
    * rules then keep qualifying devices via one aggregate + semi-join.
    */
  def select(raw: DataFrame, rules: Seq[SelectRule]): DataFrame = {
    val recordCond: Seq[Column] = rules.collect {
      case TemporalRange(t0, t1) => col("ts").between(t0, t1)
      case DeviceIdPattern(re)   => col("deviceId").rlike(re)
    }
    val rows = recordCond.foldLeft(raw)((df, c) => df.filter(c))

    // Each sequence rule is a condition on aggregates of a device's
    // record-filtered rows.
    val seqConds: Seq[Column] = rules.collect {
      case SpatialRange(f, r) =>
        max(when(col("floor") === f &&
                 col("x").between(r.xMin, r.xMax) &&
                 col("y").between(r.yMin, r.yMax), 1).otherwise(0)) === 1
      case MinDuration(s) =>
        max(col("ts")) - min(col("ts")) >= s
      case MinFrequency(rpm) =>
        // Average rate over the observed span, at least one minute long;
        // a sequence with no span (one record, or all at one timestamp)
        // has rate 0 and cannot meet a positive frequency bound.
        val span = (max(col("ts")) - min(col("ts"))).cast("double")
        when(span > 0, count(lit(1)).cast("double") / greatest(lit(1.0), span / 60.0))
          .otherwise(0.0) >= rpm
      case PeriodicPattern(d) =>
        countDistinct(floor(col("ts") / 86400L)) >= d
      case OperatingHours(o, c) =>
        min(when(secOfDay(col("ts")) >= o * 3600L && secOfDay(col("ts")) < c * 3600L, 1)
          .otherwise(0)) === 1
    }
    if (seqConds.isEmpty) rows
    else {
      val keep = rows.groupBy("deviceId").agg(seqConds.reduce(_ && _).as("__keep"))
        .filter(col("__keep")).select(col("deviceId").as("__dev"))
      rows.join(keep, rows("deviceId") === keep("__dev"), "left_semi")
    }
  }
}
