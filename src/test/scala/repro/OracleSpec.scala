package repro

import org.apache.spark.sql.functions._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig

/** Sanity checks of the DuckDB oracle machinery itself, on simulated raw
  * positioning records, so oracle-based assertions elsewhere are
  * trustworthy: a correct query must pass, a wrong one must fail. */
class OracleSpec extends SparkSpec {

  private lazy val raw =
    SynthIndoor.raw(spark, Mall.dsm(), SimConfig(nDevices = 5)).toDF().cache()

  test("a correct aggregation passes the oracle") {
    val q = raw.groupBy("floor")
      .agg(count(lit(1)).as("n"), round(sum("x"), 2).as("sum_x"))
    Oracle.assertEquivalent(q,
      """SELECT CAST(floor AS INT) AS floor, count(*) AS n,
        |       round(sum(CAST(x AS DOUBLE)), 2) AS sum_x
        |FROM raw GROUP BY floor""".stripMargin,
      "raw" -> raw)
  }

  test("a wrong result is rejected with a row diff") {
    val q = raw.groupBy("floor").agg((count(lit(1)) + 1).as("n"))
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(q,
        "SELECT CAST(floor AS INT) AS floor, count(*) AS n FROM raw GROUP BY floor",
        "raw" -> raw)
    }
    assert(e.getMessage.contains("result mismatch"))
  }

  test("a column-name mismatch is rejected up front") {
    val q = raw.groupBy("floor").agg(count(lit(1)).as("wrong_name"))
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(q,
        "SELECT CAST(floor AS INT) AS floor, count(*) AS n FROM raw GROUP BY floor",
        "raw" -> raw)
    }
    assert(e.getMessage.contains("column mismatch"))
  }
}
