package repro.core

import repro.core.Schema._
import repro.indoor.{Dsm, Region}

/** Spatial matching (Annotation layer, step 2b): "the spatial annotation is
  * made by matching the semantic regions in the DSM." [[matchSnippet]] is
  * the per-snippet matcher: a majority vote of the member records'
  * containing regions (noise-robust), skipped when they all agree.
  */
object SpatialMatcher {

  /** Majority region over the snippet's records, each record's region
    * taken from `Dsm.locate` (through `regionAtSnapped`): an out-of-wall
    * record snaps to the nearest wall on its floor, and where regions touch
    * the smaller one holds it (a shop beats the corridor), inside the walls
    * or not. Record-level ties also break toward the smaller region. None
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
}
