package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, SqlReference}
import repro.core.Schema._

/** `SqlReference.euclidSpeeds` (T2's speed-violation row) against the same
  * window query on DuckDB. */
class EuclidSpeedsSpec extends SparkSpec {

  /** The window query of `euclidSpeeds`, on DuckDB. */
  private val duckSpeeds =
    """WITH t AS (
      |  SELECT deviceId, CAST(ts AS BIGINT) AS ts, CAST(x AS DOUBLE) AS x,
      |         CAST(y AS DOUBLE) AS y, CAST(floor AS INT) AS floor FROM raw),
      |l AS (
      |  SELECT *, lag(ts) OVER w AS prev_ts, lag(x) OVER w AS prev_x,
      |         lag(y) OVER w AS prev_y, lag(floor) OVER w AS prev_floor
      |  FROM t WINDOW w AS (PARTITION BY deviceId ORDER BY ts, floor, x, y))
      |SELECT deviceId AS device_id, ts, prev_ts,
      |       CASE WHEN prev_ts IS NOT NULL AND ts > prev_ts AND floor = prev_floor
      |            THEN sqrt(pow(x - prev_x, 2) + pow(y - prev_y, 2)) / (ts - prev_ts)
      |       END AS euclid_speed
      |FROM l""".stripMargin

  /** Each device's non-null speeds, in time order. */
  private def speedsByDevice(speeds: DataFrame): Map[String, Seq[Double]] =
    speeds.collect().toSeq
      .flatMap(r => Option(r.getAs[java.lang.Double]("euclid_speed"))
        .map(s => (r.getAs[String]("device_id"), r.getAs[Long]("ts"), s.doubleValue)))
      .groupBy(_._1).map { case (d, v) => d -> v.sortBy(_._2).map(_._3) }

  test("euclidSpeeds agrees with DuckDB on first records, duplicate timestamps and floor changes") {
    import spark.implicits._
    val raw = Seq(
      PosRecord("a", 0, 0, 0, 0),  // first record: no speed
      PosRecord("a", 10, 3, 4, 0), // 5 m in 10 s
      PosRecord("a", 10, 3, 4, 0), // the same record again: dt = 0, no speed
      PosRecord("a", 20, 3, 4, 1), // floor change: no speed
      PosRecord("a", 30, 9, 12, 1), // 10 m in 10 s
      PosRecord("b", 5, 1, 1, 2),
      PosRecord("b", 7, 4, 5, 2)   // 5 m in 2 s
    ).toDF()
    val speeds = SqlReference.euclidSpeeds(raw)
    assert(speeds.collect().flatMap(r => Option(r.getAs[java.lang.Double]("euclid_speed")))
      .map(_.doubleValue).sorted.toSeq == Seq(0.5, 1.0, 2.5))
    Oracle.assertEquivalent(speeds, duckSpeeds, "raw" -> raw)
  }

  test("euclidSpeeds orders conflicting same-timestamp rows by floor, x, y, in any row order") {
    import spark.implicits._
    // Two records at ts 10 on one floor; devices c and d list them in
    // opposite row orders. In (ts, floor, x, y) order (3, 4) comes first:
    // 5 m in 10 s, then dt = 0, then 45 m in 10 s from (30, 40).
    def track(d: String, tie: Seq[(Double, Double)]) =
      PosRecord(d, 0, 0, 0, 0) +: tie.map { case (x, y) => PosRecord(d, 10, x, y, 0) } :+ PosRecord(d, 20, 3, 4, 0)
    val raw = (track("c", Seq((3, 4), (30, 40))) ++ track("d", Seq((30, 40), (3, 4)))).toDF()
    val speeds = SqlReference.euclidSpeeds(raw)
    assert(speedsByDevice(speeds) == Map("c" -> Seq(0.5, 4.5), "d" -> Seq(0.5, 4.5)))
    Oracle.assertEquivalent(speeds, duckSpeeds, "raw" -> raw)
  }
}
