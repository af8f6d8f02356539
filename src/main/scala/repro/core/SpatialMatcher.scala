package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Schema._
import repro.indoor.{Dsm, Region}

/** Spatial matching (Annotation layer, step 2b): "the spatial annotation is
  * made by matching the semantic regions in the DSM."
  *
  * Two forms:
  *  - [[matchSnippet]] — the pipeline's per-snippet matcher: majority vote
  *    of the member records' containing regions (noise-robust), skipped
  *    when they all agree;
  *  - [[matchRecords]] — a record-level point-in-region DataFrame join
  *    against the DSM regions, used for analyses and oracle-checked tests
  *    (it is plain relational algebra: floor equality + range predicates).
  */
object SpatialMatcher {

  /** Majority containing region over the snippet's records; record-level
    * ties break toward the smaller region (a shop beats the corridor), and
    * out-of-wall records snap to the nearest region on their floor. None
    * when no record's floor has a region (the snippet is off the map).
    *
    * Most snippets lie in one region; that region is returned without a
    * vote. Otherwise the vote counts per region id, and a tie in both count
    * and area goes to the first maximum in the `groupBy` map's iteration
    * order.
    */
  def matchSnippet(dsm: Dsm, s: Snippet): Option[Region] = {
    val regions = s.records.flatMap(r => dsm.regionAtSnapped(r.point))
    if (regions.isEmpty) None
    else if (regions.forall(_.id == regions.head.id)) Some(regions.head)
    else Some(regions.groupBy(_.id).maxBy { case (_, v) => (v.size, -v.head.rect.area) }._2.head)
  }

  /** The DSM regions as a DataFrame (region_id, floor, x_min, y_min,
    * x_max, y_max, tag, kind). */
  def regionsDf(spark: SparkSession, dsm: Dsm): DataFrame = {
    import spark.implicits._
    dsm.regions.map(r => (r.id, r.floor, r.rect.xMin, r.rect.yMin,
                          r.rect.xMax, r.rect.yMax, r.tag, r.kind))
      .toDF("region_id", "region_floor", "x_min", "y_min", "x_max", "y_max", "tag", "kind")
  }

  /** Record-level point-in-region join. Boundary points match every
    * touching region (closed rectangles) — disambiguation is the caller's
    * concern; the pipeline's majority vote prefers smaller regions.
    * Input columns: deviceId, ts, x, y, floor. Output adds region columns.
    */
  def matchRecords(records: DataFrame, regions: DataFrame): DataFrame =
    records.join(regions,
      records("floor") === regions("region_floor") &&
        records("x") >= regions("x_min") && records("x") <= regions("x_max") &&
        records("y") >= regions("y_min") && records("y") <= regions("y_max"),
      "inner")
}
