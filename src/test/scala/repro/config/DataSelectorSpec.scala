package repro.config

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.Schema._
import repro.indoor.Geometry.Rect

/** Data Selector rules, each verified against DuckDB where the rule is a
  * plain relational query. */
class DataSelectorSpec extends SparkSpec {

  import org.apache.spark.sql.functions._

  /** Small fixed fleet: dev a (2 days, ground floor), dev b (floor 3,
    * short), dev c (3a-prefixed, sparse), dev d (late-night records). */
  private lazy val raw: DataFrame = {
    import spark.implicits._
    val t0 = WeekStart + 12 * 3600
    val rows =
      // a: 1 record/min for 2h on floor 0, on two days
      (0 until 120).map(i => PosRecord("aa:01", t0 + i * 60L, 10 + i * 0.1, 5, 0)) ++
      (0 until 120).map(i => PosRecord("aa:01", t0 + 86400 + i * 60L, 10, 6, 0)) ++
      // b: 30 min on floor 3
      (0 until 30).map(i => PosRecord("bb:02", t0 + i * 60L, 50, 20, 3)) ++
      // c: 3a-prefixed, 3 records over 20 min
      Seq(PosRecord("3a:ff:14", t0, 5, 5, 1), PosRecord("3a:ff:14", t0 + 600, 6, 5, 1),
          PosRecord("3a:ff:14", t0 + 1200, 7, 5, 1)) ++
      // d: records at 23:00 (outside 10-22 operating hours)
      (0 until 10).map(i => PosRecord("dd:04", WeekStart + 23 * 3600 + i * 60L, 1, 1, 0))
    rows.toDF()
  }

  private def devices(df: DataFrame): Set[String] =
    df.select("deviceId").distinct().collect().map(_.getString(0)).toSet

  test("no rules: everything passes") {
    assert(DataSelector.select(raw, Seq.empty).count() == raw.count())
  }

  test("device id pattern keeps matching devices only") {
    val out = DataSelector.select(raw, Seq(DeviceIdPattern("^3a.*14$")))
    assert(devices(out) == Set("3a:ff:14"))
    Oracle.assertEquivalent(
      out.groupBy("deviceId").agg(count(lit(1)).as("n")),
      "SELECT deviceId, count(*) AS n FROM raw WHERE regexp_matches(deviceId, '^3a.*14$') GROUP BY deviceId",
      "raw" -> raw)
  }

  test("temporal range filters records") {
    val t0 = WeekStart + 12 * 3600
    val out = DataSelector.select(raw, Seq(TemporalRange(t0, t0 + 3600)))
    assert(out.agg(max("ts")).head().getLong(0) <= t0 + 3600)
    Oracle.assertEquivalent(
      out.groupBy("deviceId").agg(count(lit(1)).as("n")),
      s"SELECT deviceId, count(*) AS n FROM raw WHERE CAST(ts AS BIGINT) BETWEEN $t0 AND ${t0 + 3600} GROUP BY deviceId",
      "raw" -> raw)
  }

  test("spatial range keeps whole sequences that touch the range") {
    val out = DataSelector.select(raw, Seq(SpatialRange(0, Rect(0, 0, 30, 10))))
    assert(devices(out) == Set("aa:01", "dd:04"))
    // Sequence-level: ALL of aa:01's records survive, including day 2.
    assert(out.filter(col("deviceId") === "aa:01").count() == 240)
  }

  test("spatial range agrees with DuckDB EXISTS semantics") {
    val out = DataSelector.select(raw, Seq(SpatialRange(3, Rect(0, 0, 100, 40))))
    Oracle.assertEquivalent(
      out.groupBy("deviceId").agg(count(lit(1)).as("n")),
      """SELECT deviceId, count(*) AS n FROM raw r WHERE EXISTS (
        |  SELECT 1 FROM raw s WHERE s.deviceId = r.deviceId
        |    AND CAST(s.floor AS INT) = 3
        |    AND CAST(s.x AS DOUBLE) BETWEEN 0 AND 100
        |    AND CAST(s.y AS DOUBLE) BETWEEN 0 AND 40
        |) GROUP BY deviceId""".stripMargin,
      "raw" -> raw)
  }

  test("min duration keeps sequences spanning at least the bound") {
    val out = DataSelector.select(raw, Seq(MinDuration(3600)))
    assert(devices(out) == Set("aa:01"))
  }

  test("min duration agrees with DuckDB") {
    val out = DataSelector.select(raw, Seq(MinDuration(1200)))
    Oracle.assertEquivalent(
      out.groupBy("deviceId").agg(count(lit(1)).as("n")),
      """SELECT deviceId, count(*) AS n FROM raw r WHERE deviceId IN (
        |  SELECT deviceId FROM raw GROUP BY deviceId
        |  HAVING max(CAST(ts AS BIGINT)) - min(CAST(ts AS BIGINT)) >= 1200
        |) GROUP BY deviceId""".stripMargin,
      "raw" -> raw)
  }

  test("positioning frequency rule") {
    // Average rate over the observed span: bb:02 (30 records / 29 min) and
    // dd:04 (10 / 9 min) qualify at 0.9/min; 3a:ff:14 (3 / 20 min) does
    // not, and neither does aa:01 — its two one-hour bursts are diluted by
    // the day-long span between them.
    val out = DataSelector.select(raw, Seq(MinFrequency(0.9)))
    assert(devices(out) == Set("bb:02", "dd:04"))
    val loose = DataSelector.select(raw, Seq(MinFrequency(0.1)))
    assert(devices(loose).contains("aa:01"))
  }

  test("positioning frequency rule rejects a one-record sequence") {
    import spark.implicits._
    // A single record has no span, so no rate: it must not read as one
    // record per minute.
    val withSingle = raw.union(Seq(PosRecord("ee:05", WeekStart + 12 * 3600, 1, 1, 0)).toDF())
    val out = DataSelector.select(withSingle, Seq(MinFrequency(0.5)))
    assert(devices(out) == Set("bb:02", "dd:04"))
  }

  test("periodic pattern requires distinct days") {
    val out = DataSelector.select(raw, Seq(PeriodicPattern(2)))
    assert(devices(out) == Set("aa:01"))
    val out1 = DataSelector.select(raw, Seq(PeriodicPattern(1)))
    assert(devices(out1) == devices(raw))
  }

  test("operating hours excludes late-night sequences entirely") {
    val out = DataSelector.select(raw, Seq(OperatingHours(10, 22)))
    assert(!devices(out).contains("dd:04"))
    assert(devices(out).contains("aa:01"))
  }

  test("rules combine conjunctively") {
    val out = DataSelector.select(raw,
      Seq(DeviceIdPattern("^(aa|bb).*"), MinDuration(1500), SpatialRange(0, Rect(0, 0, 100, 40))))
    assert(devices(out) == Set("aa:01"))
  }

  test("sequence rules run as one aggregate and one semi-join") {
    import org.apache.spark.sql.catalyst.plans.LeftSemi
    import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Join}
    val out = DataSelector.select(raw,
      Seq(SpatialRange(0, Rect(0, 0, 100, 40)), MinDuration(600), OperatingHours(10, 22)))
    assert(devices(out) == Set("aa:01"))
    val plan = out.queryExecution.optimizedPlan
    assert(plan.collect { case a: Aggregate => a }.size == 1)
    assert(plan.collect { case j: Join if j.joinType == LeftSemi => j }.size == 1)
  }

  test("a device passes all sequence rules at once iff it passes each alone") {
    // PeriodicPattern's distinct count shares the one aggregate with the
    // other rules' plain aggregates.
    val rules = Seq(SpatialRange(0, Rect(0, 0, 100, 40)), MinDuration(600),
      MinFrequency(0.1), PeriodicPattern(2), OperatingHours(10, 22))
    val each = rules.map(r => devices(DataSelector.select(raw, Seq(r))))
    assert(devices(DataSelector.select(raw, rules)) == each.reduce(_ intersect _))
    assert(each.reduce(_ intersect _) == Set("aa:01"))
  }

  test("contradictory rules produce an empty selection") {
    val out = DataSelector.select(raw,
      Seq(DeviceIdPattern("^dd.*"), OperatingHours(10, 22)))
    assert(out.count() == 0)
  }

  test("record rules apply before sequence rules") {
    // Restricting time to day 1 leaves aa:01 with a 2h span — still >= 1h,
    // but the day-2 records are gone from the output.
    val t0 = WeekStart
    val out = DataSelector.select(raw, Seq(TemporalRange(t0, t0 + 86399), MinDuration(3600)))
    assert(devices(out) == Set("aa:01"))
    assert(out.count() == 120)
  }
}
