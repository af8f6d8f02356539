package repro.core

import repro.core.Schema._
import repro.indoor.Dsm
import scala.collection.mutable

/** One device's raw records as columns, in no particular order: what
  * [[PerDevice.tracks]] fills from the cached input and the Cleaner reads.
  * Record `i` is `(ts(i), x(i), y(i), floor(i))`; the device id is kept
  * beside the track, not in it. */
private[repro] final class Track(val ts: Array[Long], val x: Array[Double], val y: Array[Double],
                                 val floor: Array[Int]) extends Serializable {
  def length: Int = ts.length

  /** The records as [[PosRecord]]s of `deviceId`, in column order. */
  def records(deviceId: String): Vector[PosRecord] =
    Vector.tabulate(length)(i => PosRecord(deviceId, ts(i), x(i), y(i), floor(i)))
}

private[repro] object Track {

  def of(records: Seq[PosRecord]): Track = {
    val b = new Builder
    records.foreach(r => b.add(r.ts, r.x, r.y, r.floor))
    b.result()
  }

  /** The fragments' records in one track, fragment after fragment. */
  def concat(fragments: Seq[Track]): Track =
    if (fragments.size == 1) fragments.head
    else {
      val b = new Builder
      fragments.foreach { t =>
        var i = 0
        while (i < t.length) { b.add(t.ts(i), t.x(i), t.y(i), t.floor(i)); i += 1 }
      }
      b.result()
    }

  /** Appends records column by column. */
  final class Builder {
    private val ts = new mutable.ArrayBuilder.ofLong
    private val x = new mutable.ArrayBuilder.ofDouble
    private val y = new mutable.ArrayBuilder.ofDouble
    private val floor = new mutable.ArrayBuilder.ofInt

    def add(t: Long, px: Double, py: Double, f: Int): Unit = { ts += t; x += px; y += py; floor += f }

    def result(): Track = new Track(ts.result(), x.result(), y.result(), floor.result())
  }
}

/** One device's cleaned records as columns, in time order: what the Cleaner
  * writes and the Annotator reads. Record `i` is `(ts(i), x(i), y(i),
  * floor(i))` with repair `Cleaner.Repairs(repair(i))`; `region(i)` is the
  * index in `Dsm.regions` of the region `Dsm.locate` gives that point, -1
  * off the map, so the Annotator never locates a record again. */
private[repro] final class CleanTrack(val ts: Array[Long], val x: Array[Double], val y: Array[Double],
                                      val floor: Array[Int], val repair: Array[Byte],
                                      val region: Array[Int]) {
  def length: Int = ts.length

  /** The records as [[CleanRecord]]s of `deviceId`, in time order. */
  def records(deviceId: String): Vector[CleanRecord] =
    Vector.tabulate(length)(i => CleanRecord(deviceId, ts(i), x(i), y(i), floor(i), Cleaner.Repairs(repair(i))))
}

private[repro] object CleanTrack {

  /** `records` as columns, each located with `Dsm.regionIdxAtSnapped`, the
    * Cleaner's rule: what the per-device functions' `Seq` signatures read.
    * A repair the Cleaner does not write reads as code -1. */
  def of(dsm: Dsm, records: Seq[CleanRecord]): CleanTrack = {
    val n = records.size
    val t = new CleanTrack(new Array[Long](n), new Array[Double](n), new Array[Double](n),
                           new Array[Int](n), new Array[Byte](n), new Array[Int](n))
    var i = 0
    records.foreach { r =>
      t.ts(i) = r.ts; t.x(i) = r.x; t.y(i) = r.y; t.floor(i) = r.floor
      t.repair(i) = Cleaner.Repairs.indexOf(r.repair).toByte
      t.region(i) = dsm.regionIdxAtSnapped(r.point)
      i += 1
    }
    t
  }
}
