package repro.core

import repro.indoor.Geometry.IndoorPoint

/** Row types flowing through the translation pipeline.
  *
  * All timestamps are epoch seconds (UTC). Device ids are anonymized
  * MAC-style strings, mirroring the paper's demo dataset.
  */
object Schema {

  /** Epoch seconds of 2017-01-01 00:00:00 UTC — start of the paper's
    * demo-dataset week (2017-01-01 .. 2017-01-07). */
  val WeekStart: Long = 1483228800L
  val SecondsPerDay: Long = 86400L

  /** A raw positioning record: the object location as a geometric point at
    * a timestamp (paper Table 1, left). */
  final case class PosRecord(deviceId: String, ts: Long, x: Double, y: Double, floor: Int) {
    def point: IndoorPoint = IndoorPoint(x, y, floor)
  }

  /** A cleaned positioning record; `repair` records what the Cleaning layer
    * did, in the order its rules are tried: "none" (kept as it is), "floor"
    * (floor value correction), "reanchor" (kept as it is, as the new anchor
    * in place of an outlying last record) or "interp" (location
    * interpolation). An off-map first record that takes the location of the
    * device's first on-map record is "interp" too. */
  final case class CleanRecord(deviceId: String, ts: Long, x: Double, y: Double,
                               floor: Int, repair: String) {
    def point: IndoorPoint = IndoorPoint(x, y, floor)
    def toPos: PosRecord = PosRecord(deviceId, ts, x, y, floor)
  }

  /** Ground-truth state of a simulated device at one second. `event` is the
    * true mobility event ("stay" / "pass-by"), `tag` the true semantic
    * region. Only the synthetic generator produces these; the pipeline
    * never sees them. */
  final case class GtRecord(deviceId: String, ts: Long, x: Double, y: Double,
                            floor: Int, regionId: String, tag: String, event: String)

  /** A mobility semantics triplet (paper Table 1, right): event annotation,
    * spatial annotation (semantic-region tag) and temporal annotation.
    *
    * @param seqNo    position within the device's semantics sequence
    * @param regionId DSM region carrying `tag` (internal; the user-facing
    *                 annotation is the tag)
    * @param source   "annotated" (Annotator), "inferred" (Complementor) or
    *                 "truth" (ground-truth encoding for evaluation)
    */
  final case class Semantic(deviceId: String, seqNo: Int, event: String, tag: String,
                            regionId: String, tStart: Long, tEnd: Long, source: String) {
    def duration: Long = tEnd - tStart
  }

  /** A data snippet produced by density-based splitting: a maximal run of
    * cleaned records clustered on spatio-temporal attributes, to be matched
    * to one mobility semantics. `dense` marks stay-candidate (density
    * cluster) vs movement snippets — structural only; the final event
    * annotation comes from the learned model. */
  final case class Snippet(deviceId: String, snippetId: Int, dense: Boolean,
                           records: Seq[CleanRecord]) {
    def tStart: Long = records.head.ts
    def tEnd: Long   = records.last.ts
  }

  /** Per-snippet feature vector for the event-identification model — the
    * feature set named by the paper §3: positioning location variance,
    * traveling distance and speed, covering range, number of turns. */
  final case class SnippetFeatures(deviceId: String, snippetId: Int,
                                   duration: Double, pathLen: Double,
                                   avgSpeed: Double, maxSpeed: Double,
                                   locVariance: Double, coveringRange: Double,
                                   nTurns: Double, pointCount: Double) {
    def vector: Array[Double] =
      Array(duration, pathLen, avgSpeed, maxSpeed, locVariance, coveringRange, nTurns, pointCount)
  }

  object SnippetFeatures {
    val names: Seq[String] = Seq("duration", "pathLen", "avgSpeed", "maxSpeed",
                                 "locVariance", "coveringRange", "nTurns", "pointCount")
    val dim: Int = names.size
  }

  /** A training segment designated through the Event Editor: the analyst
    * marks a device's time range as exhibiting a mobility event pattern. */
  final case class LabeledSegment(deviceId: String, tStart: Long, tEnd: Long, label: String)

  /** Mobility event names used throughout (user-definable in principle;
    * these two are the paper's running examples). */
  val Stay = "stay"
  val PassBy = "pass-by"
}
