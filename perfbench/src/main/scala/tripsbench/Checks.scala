package tripsbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import repro.core.Schema.Semantic
import repro.indoor.Dsm
import scala.collection.mutable

/** Output checks on collected semantics. */
object Checks {

  /** SHA-256 of the semantics in (device, seqNo) order, so it does not
    * depend on the order Spark returned them in. */
  def digest(sem: Seq[Semantic]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    sem.sortBy(s => (s.deviceId, s.seqNo)).foreach { s =>
      md.update(s"${s.deviceId}|${s.seqNo}|${s.event}|${s.tag}|${s.regionId}|${s.tStart}|${s.tEnd}|${s.source}\n"
        .getBytes(StandardCharsets.UTF_8))
    }
    md.digest().map(b => f"$b%02x").mkString
  }

  /** Violations of the translation's output invariants: each device's
    * semantics are numbered 0..n-1 in time order and do not overlap; every
    * regionId is in the DSM; every inferred semantics lies strictly inside
    * a hole, i.e. a gap above `gapThreshold` between two annotated ones. */
  def violations(sem: Seq[Semantic], dsm: Dsm, gapThreshold: Long): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    sem.filterNot(s => dsm.regionById.contains(s.regionId))
      .foreach(s => out += s"${s.deviceId}#${s.seqNo}: unknown region ${s.regionId}")
    sem.groupBy(_.deviceId).foreach { case (dev, ss) =>
      val seq = ss.sortBy(_.seqNo).toVector
      if (seq.map(_.seqNo) != seq.indices) out += s"$dev: seqNo is not 0..${seq.size - 1}"
      seq.foreach(s => if (s.tEnd < s.tStart) out += s"$dev#${s.seqNo}: ends before it starts")
      seq.sliding(2).foreach {
        case Vector(a, b) if a.tEnd >= b.tStart => out += s"$dev#${a.seqNo}: overlaps or follows #${b.seqNo}"
        case _ => ()
      }
      seq.indices.filter(i => seq(i).source == "inferred").foreach { i =>
        val s = seq(i)
        val before = seq.take(i).reverse.find(_.source == "annotated")
        val after = seq.drop(i + 1).find(_.source == "annotated")
        val inHole = (before, after) match {
          case (Some(a), Some(b)) => b.tStart - a.tEnd > gapThreshold && a.tEnd < s.tStart && s.tEnd < b.tStart
          case _                  => false
        }
        if (!inHole) out += s"$dev#${s.seqNo}: inferred semantics outside a hole"
      }
    }
    out.toSeq
  }
}
