package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Schema._
import repro.gen.Mall
import repro.indoor.Geometry._
import repro.indoor.{Dsm, Door, Region}

class SpatialMatcherSpec extends SparkSpec {

  private val dsm = new Dsm(
    IndexedSeq(
      Region("A", 0, Rect(0, 0, 10, 10), "A", "room"),
      Region("B", 0, Rect(10, 0, 20, 10), "B", "room"),
      Region("K", 0, Rect(4, 4, 6, 6), "Kiosk", "room")), // nested in A
    IndexedSeq(Door("d1", "A", "B", 10, 5)))

  private def rec(ts: Long, x: Double, y: Double, f: Int = 0) =
    CleanRecord("dev", ts, x, y, f, "none")

  test("matchSnippet majority vote") {
    val s = Snippet("dev", 0, dense = true,
      Seq(rec(0, 2, 2), rec(5, 3, 3), rec(10, 15, 5)))
    assert(SpatialMatcher.matchSnippet(dsm, s).map(_.id).contains("A"))
  }

  test("matchSnippet prefers the smaller region on containment") {
    val s = Snippet("dev", 0, dense = true, Seq(rec(0, 5, 5), rec(5, 5.5, 5.5)))
    assert(SpatialMatcher.matchSnippet(dsm, s).map(_.id).contains("K"))
  }

  test("matchSnippet snaps out-of-wall records") {
    val s = Snippet("dev", 0, dense = false, Seq(rec(0, -3, 5), rec(5, -2, 5)))
    assert(SpatialMatcher.matchSnippet(dsm, s).map(_.id).contains("A"))
  }

  test("matchSnippet tie breaks deterministically by vote then area") {
    val s = Snippet("dev", 0, dense = false, Seq(rec(0, 2, 2), rec(5, 15, 5)))
    // 1 vote A, 1 vote B: maxBy keeps a deterministic winner (vote count
    // equal -> smaller area; A and B have equal area -> stable order).
    val r1 = SpatialMatcher.matchSnippet(dsm, s)
    val r2 = SpatialMatcher.matchSnippet(dsm, s)
    assert(r1.nonEmpty && r1.map(_.id) == r2.map(_.id))
  }

  test("matchSnippet on a floor without regions is None") {
    val s = Snippet("dev", 0, dense = true, Seq(rec(0, 5, 5, f = 99), rec(5, 5, 5, f = 99)))
    assert(SpatialMatcher.matchSnippet(dsm, s).isEmpty)
  }

  test("regionsDf carries the full DSM region set") {
    val df = SpatialMatcher.regionsDf(spark, dsm)
    assert(df.count() == 3)
    assert(df.columns.toSeq == Seq("region_id", "region_floor", "x_min", "y_min",
      "x_max", "y_max", "tag", "kind"))
  }

  test("record-level join matches DuckDB point-in-region semantics") {
    import spark.implicits._
    val rng = new scala.util.Random(4)
    val records = (0 until 300).map(i =>
      PosRecord(s"d${i % 5}", i.toLong, rng.nextDouble() * 25 - 2,
        rng.nextDouble() * 12 - 1, rng.nextInt(2))).toDF()
    val regions = SpatialMatcher.regionsDf(spark, dsm)
    val out = SpatialMatcher.matchRecords(records, regions)
      .groupBy("region_id").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(out,
      """SELECT g.region_id, count(*) AS n
        |FROM records r JOIN regions g
        |  ON CAST(r.floor AS INT) = CAST(g.region_floor AS INT)
        | AND CAST(r.x AS DOUBLE) BETWEEN CAST(g.x_min AS DOUBLE) AND CAST(g.x_max AS DOUBLE)
        | AND CAST(r.y AS DOUBLE) BETWEEN CAST(g.y_min AS DOUBLE) AND CAST(g.y_max AS DOUBLE)
        |GROUP BY g.region_id""".stripMargin,
      "records" -> records, "regions" -> regions)
  }

  test("mall-scale join: every in-wall record matches exactly one region or a boundary set") {
    import spark.implicits._
    val mall = Mall.dsm()
    val rng = new scala.util.Random(6)
    val records = (0 until 500).map { i =>
      PosRecord("d", i.toLong, rng.nextDouble() * 99.9 + 0.05,
        rng.nextDouble() * 39.9 + 0.05, rng.nextInt(7))
    }.toDF()
    val joined = SpatialMatcher.matchRecords(records, SpatialMatcher.regionsDf(spark, mall))
    // The mall tiles each floor, so every record matches at least one region.
    assert(joined.select("ts").distinct().count() == 500)
  }
}
