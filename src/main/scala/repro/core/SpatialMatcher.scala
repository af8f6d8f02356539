package repro.core

import repro.core.Schema._
import repro.indoor.{Dsm, Region}

/** Spatial matching (Annotation layer, step 2b): "the spatial annotation is
  * made by matching the semantic regions in the DSM." [[matchRange]] is
  * the one matcher: a majority vote of the member records' regions
  * (noise-robust), skipped when they all agree. It reads the region index
  * the Cleaner carried with each record, so a translation locates no
  * record here; [[matchSnippet]] is its form over a [[Snippet]], which
  * locates each record with `Dsm.regionIdxAtSnapped`.
  */
object SpatialMatcher {

  /** Majority region over the snippet's records, each record's region
    * taken from `Dsm.locate` (through `regionIdxAtSnapped`): the
    * [[matchRange]] of the records' region indices. */
  def matchSnippet(dsm: Dsm, s: Snippet): Option[Region] = {
    val region = s.records.iterator.map(r => dsm.regionIdxAtSnapped(r.point)).toArray
    val m = matchRange(dsm, region, 0, region.length)
    if (m < 0) None else Some(dsm.regions(m))
  }

  /** The majority region of records `from until until`, given each
    * record's region index in `Dsm.regions` (-1 off the map), as the index
    * of the region; -1 when every record is off the map. Each record's
    * region is the one `Dsm.locate` gives it: an out-of-wall record snaps
    * to the nearest wall on its floor, and where regions touch the smaller
    * one holds it (a shop beats the corridor), inside the walls or not.
    *
    * Most snippets lie in one region; that region is returned without a
    * vote. Otherwise the vote counts per region, and record-level ties
    * break toward the smaller region. A tie in both count and area goes to
    * the first maximum in the iteration order of a `groupBy` map of the
    * voted regions by id; the vote builds that map only for such a tie.
    */
  private[repro] def matchRange(dsm: Dsm, region: Array[Int], from: Int, until: Int): Int = {
    var k = from
    while (k < until && region(k) < 0) k += 1
    if (k == until) return -1
    val first = region(k)
    while (k < until && (region(k) < 0 || region(k) == first)) k += 1
    if (k == until) return first

    // The distinct voted regions, in first-vote order, and their votes.
    val ids = new Array[Int](until - from)
    val votes = new Array[Int](until - from)
    var distinct = 0
    k = from
    while (k < until) {
      val r = region(k)
      if (r >= 0) {
        var d = 0
        while (d < distinct && ids(d) != r) d += 1
        if (d == distinct) { ids(d) = r; distinct += 1 }
        votes(d) += 1
      }
      k += 1
    }
    def area(d: Int) = dsm.regions(ids(d)).rect.area
    var best = 0
    var tied = false
    var d = 1
    while (d < distinct) {
      var c = Integer.compare(votes(d), votes(best))
      if (c == 0) c = java.lang.Double.compare(-area(d), -area(best))
      if (c > 0) { best = d; tied = false } else if (c == 0) tied = true
      d += 1
    }
    if (!tied) ids(best)
    else {
      val regions = (from until until).collect { case i if region(i) >= 0 => dsm.regions(region(i)) }
      dsm.regionIndex(regions.groupBy(_.id).maxBy { case (_, v) => (v.size, -v.head.rect.area) }._1)
    }
  }
}
