package repro.core

import repro.core.Knowledge.{RegionTally, Summary}
import repro.core.Schema._
import repro.indoor.Dsm
import scala.collection.mutable

/** One partition's annotated semantics in compact form: what
  * `Translator.translate` caches between its pass and the complement.
  *
  * Device ids are stored once, with the number of semantics of each
  * device. Each semantics is three zigzag varints in one byte array:
  * `tStart − previous tEnd` (the previous `tEnd` of a device's first is
  * 0), `tEnd − tStart` and `(region index << 1) | stay`, the index into
  * `Dsm.regions`. The
  * rest is implied: `seqNo` is the position within the device, `tag` is
  * the region's, `source` is "annotated". Deltas wrap modulo 2^64, so any
  * `Long` time round-trips exactly.
  */
private[core] final class SemanticsBlock(val deviceIds: Array[String], val counts: Array[Int],
                                         val data: Array[Byte]) extends Serializable {

  /** Each device's semantics, in the order they were encoded. */
  def devices(dsm: Dsm): Iterator[(String, Vector[Semantic])] = {
    val in = new Reader
    deviceIds.indices.iterator.map { d =>
      val id = deviceIds(d)
      val out = Vector.newBuilder[Semantic]
      var prevEnd = 0L
      var i = 0
      while (i < counts(d)) {
        val tStart = prevEnd + in.next()
        val tEnd = tStart + in.next()
        val re = in.next()
        val region = dsm.regions((re >>> 1).toInt)
        out += Semantic(id, i, if ((re & 1) == 1) Stay else PassBy, region.tag, region.id,
                        tStart, tEnd, source = "annotated")
        prevEnd = tEnd
        i += 1
      }
      id -> out.result()
    }
  }

  /** The knowledge the block's devices contribute: `Summary.ofDevice` of
    * each device's semantics, merged, read from the encoding by region
    * index, with no [[Semantic]] built. */
  def summary(dsm: Dsm): Summary = {
    val in = new Reader
    val moves = mutable.HashMap.empty[Long, Long] // (from << 32 | to) -> count
    val n = dsm.regions.size
    val (dwellSum, stays, count) = (new Array[Long](n), new Array[Long](n), new Array[Long](n))
    deviceIds.indices.foreach { d =>
      var prevEnd = 0L
      var prevRegion = -1
      var i = 0
      while (i < counts(d)) {
        val tStart = prevEnd + in.next()
        val tEnd = tStart + in.next()
        val re = in.next()
        val r = (re >>> 1).toInt
        if (i > 0 && r != prevRegion) {
          val key = (prevRegion.toLong << 32) | r
          moves(key) = moves.getOrElse(key, 0L) + 1
        }
        dwellSum(r) += tEnd - tStart
        if ((re & 1) == 1) stays(r) += 1
        count(r) += 1
        prevEnd = tEnd
        prevRegion = r
        i += 1
      }
    }
    def id(r: Long) = dsm.regions(r.toInt).id
    Summary(moves.iterator.map { case (k, c) => (id(k >>> 32), id(k & 0xFFFFFFFFL)) -> c }.toMap,
            (0 until n).iterator.filter(count(_) > 0)
              .map(r => id(r) -> RegionTally(dwellSum(r), stays(r), count(r))).toMap)
  }

  /** Reads the zigzag varints of `data` in order. */
  private final class Reader {
    private var pos = 0
    def next(): Long = {
      var z = 0L
      var shift = 0
      var b = 0
      while ({ b = data(pos); pos += 1; z |= (b & 0x7FL) << shift; shift += 7; (b & 0x80) != 0 }) ()
      (z >>> 1) ^ -(z & 1)
    }
  }
}

private[core] object SemanticsBlock {

  /** The block of `devices`' annotated semantics, each device's in `seqNo`
    * order as [[Annotator.annotateDevice]] emits them. */
  def encode(dsm: Dsm, devices: IterableOnce[(String, Seq[Semantic])]): SemanticsBlock = {
    val index = dsm.regionIndex
    val ids = mutable.ArrayBuilder.make[String]
    val counts = mutable.ArrayBuilder.make[Int]
    val data = mutable.ArrayBuilder.make[Byte]
    def put(v: Long): Unit = {
      var z = (v << 1) ^ (v >> 63)
      while ((z & ~0x7FL) != 0) { data += ((z & 0x7F) | 0x80).toByte; z >>>= 7 }
      data += z.toByte
    }
    devices.iterator.foreach { case (id, ss) =>
      ids += id
      counts += ss.size
      var prevEnd = 0L
      ss.iterator.zipWithIndex.foreach { case (s, i) =>
        val r = index(s.regionId)
        require(s.deviceId == id && s.seqNo == i && s.tag == dsm.regions(r).tag && s.source == "annotated" &&
                (s.event == Stay || s.event == PassBy), s"not an annotated semantics of $id at $i: $s")
        put(s.tStart - prevEnd)
        put(s.tEnd - s.tStart)
        put((r.toLong << 1) | (if (s.event == Stay) 1L else 0L))
        prevEnd = s.tEnd
      }
    }
    new SemanticsBlock(ids.result(), counts.result(), data.result())
  }
}
