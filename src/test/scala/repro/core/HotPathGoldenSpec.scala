package repro.core

import java.io.{ByteArrayOutputStream, DataOutputStream}
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.ml.LogisticRegression

/** Golden digests of the indoor hot path's consumers at SF=0.01 (50
  * devices, default seed): the simulator's ground truth, raw records and
  * gaps, the Cleaner's output, the Splitter's snippets, the Annotator's and
  * the Complementor's semantics (the Cleaner's and the semantics also for a
  * dirty feed with a hole in every device), and the Table 1 scenario. Doubles enter the digest as raw
  * IEEE-754 bits, so any change in a floating-point term — not just a
  * visible one — changes the digest.
  *
  * The first four digests were recorded from the linear-scan `Dsm` that
  * preceded `Dsm.locate`/`route`, the semantics digests from the
  * collection-based `Features.of`, `SpatialMatcher.matchSnippet` and
  * Annotator merge and the per-neighbour `mapPath` denominator, the dirty
  * feed's cleaned records from the nested-branch `Cleaner.cleanDevice`; a
  * refactor of those must reproduce them record for record.
  */
class HotPathGoldenSpec extends AnyFunSuite {

  private lazy val dsm = Mall.dsm()
  private val cfg = SimConfig(nDevices = 50)
  private lazy val sims = (0 until cfg.nDevices).map(SynthIndoor.simulate(dsm, cfg, _))
  private lazy val cleaned = sims.map(s => Cleaner.cleanDevice(dsm, s.raw))

  /** SHA-256 over whatever `feed` writes, as hex. */
  private def digest(feed: DataOutputStream => Unit): String = {
    val bytes = new ByteArrayOutputStream()
    val out = new DataOutputStream(bytes)
    feed(out)
    out.flush()
    MessageDigest.getInstance("SHA-256").digest(bytes.toByteArray).map("%02x".format(_)).mkString
  }

  private def dbl(out: DataOutputStream, d: Double): Unit =
    out.writeLong(java.lang.Double.doubleToRawLongBits(d))

  private def writeSim(out: DataOutputStream, s: SynthIndoor.DeviceSim): Unit = {
    out.writeUTF(s.deviceId)
    out.writeInt(s.gt.size)
    s.gt.foreach { g =>
      out.writeLong(g.ts); dbl(out, g.x); dbl(out, g.y); out.writeInt(g.floor)
      out.writeUTF(g.regionId); out.writeUTF(g.tag); out.writeUTF(g.event)
    }
    out.writeInt(s.raw.size)
    s.raw.foreach { r => out.writeLong(r.ts); dbl(out, r.x); dbl(out, r.y); out.writeInt(r.floor) }
    out.writeInt(s.gaps.size)
    s.gaps.foreach { case (a, b) => out.writeLong(a); out.writeLong(b) }
  }

  private def writeClean(out: DataOutputStream, rs: Seq[CleanRecord]): Unit = {
    out.writeInt(rs.size)
    rs.foreach { r =>
      out.writeUTF(r.deviceId); out.writeLong(r.ts); dbl(out, r.x); dbl(out, r.y)
      out.writeInt(r.floor); out.writeUTF(r.repair)
    }
  }

  test("simulated ground truth, raw records and gaps match the golden digest") {
    assert(digest(out => sims.foreach(writeSim(out, _))) ==
      "02db6acfd339d9d2290dc0365e6f7c5f07837bc53d664ffa7d0ea8a8839630b6")
  }

  test("cleaned records match the golden digest") {
    assert(cleaned.map(_.size).sum > 10000)
    assert(digest(out => cleaned.foreach(writeClean(out, _))) ==
      "b438a44d062f5ab8b64fe97b7ba536f957d41b13f08e144f1be65e9566b9fe1d")
  }

  test("snippets of the cleaned records match the golden digest") {
    val d = digest { out =>
      cleaned.foreach { rs =>
        Splitter.split(dsm, rs).foreach { s =>
          out.writeInt(s.snippetId); out.writeBoolean(s.dense); writeClean(out, s.records)
        }
      }
    }
    assert(d == "76fd15318aa403c9d5f37ab5db5afd6be9263463c04e22f34ed77503b5eb08fa")
  }

  private def writeSemantics(out: DataOutputStream, ss: Seq[Semantic]): Unit = {
    out.writeInt(ss.size)
    ss.foreach { s =>
      out.writeUTF(s.deviceId); out.writeInt(s.seqNo); out.writeUTF(s.event); out.writeUTF(s.tag)
      out.writeUTF(s.regionId); out.writeLong(s.tStart); out.writeLong(s.tEnd); out.writeUTF(s.source)
    }
  }

  /** Annotated and complemented semantics of every device of `sims`. The
    * event model is fitted to the features of the first 20 devices'
    * snippets (label: dense), so its weights depend on every feature bit;
    * the knowledge is merged from all devices' annotated semantics. */
  private def annotateAndComplement(sims: Seq[SynthIndoor.DeviceSim])
      : (Seq[Vector[Semantic]], Seq[Vector[Semantic]]) = {
    val cleaned = sims.map(s => Cleaner.cleanDevice(dsm, s.raw))
    val train = cleaned.take(20).flatMap(Splitter.split(dsm, _))
    val model = EventModel(LogisticRegression.fit(train.map(Features.ofSnippet(_).vector),
                                                  train.map(s => if (s.dense) 1 else 0)))
    val annotated = cleaned.map(Annotator.annotateDevice(dsm, model, _))
    val km = Knowledge.Summary.mergeAll(annotated.map(Knowledge.Summary.ofDevice)).toModel(0.5)
    (annotated, annotated.map(Complementor.complementDevice(dsm, km, _)))
  }

  /** T4's gap settings with a dirtier feed: a hole in every device. */
  private val dirtyCfg = SimConfig(nDevices = 50, floorErrProb = 0.08, outlierProb = 0.05,
                                   gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)

  test("annotated and complemented semantics match the golden digests") {
    val (annotated, complemented) = annotateAndComplement(sims)
    assert(complemented.exists(_.exists(_.source == "inferred")))
    assert(digest(out => annotated.foreach(writeSemantics(out, _))) ==
      "be5e74167c535a07c09307fdfe94368679f78143b055133409b3e8702ae66daa")
    assert(digest(out => complemented.foreach(writeSemantics(out, _))) ==
      "a99447e0b21b1a3fe952112b71b3b986cbe1aba62d0ef416e3c240a37489799f")
  }

  test("cleaned records of a dirty feed match the golden digest") {
    val cleaned = (0 until dirtyCfg.nDevices)
      .map(i => Cleaner.cleanDevice(dsm, SynthIndoor.simulate(dsm, dirtyCfg, i).raw))
    Seq("floor", "reanchor", "interp").foreach(k => assert(cleaned.exists(_.exists(_.repair == k)), k))
    assert(digest(out => cleaned.foreach(writeClean(out, _))) ==
      "60d1dc954a230147f3a69ab4d6173e596042ce932b7950721c0d0bbbba875277")
  }

  test("annotated and complemented semantics of a dirty feed match the golden digests") {
    val (annotated, complemented) =
      annotateAndComplement((0 until dirtyCfg.nDevices).map(SynthIndoor.simulate(dsm, dirtyCfg, _)))
    assert(complemented.exists(_.exists(_.source == "inferred")))
    assert(digest(out => annotated.foreach(writeSemantics(out, _))) ==
      "760455366bedecc5c11e6fd00332e2a601a5736c2ab6b20b4940ceba4ad8f8db")
    assert(digest(out => complemented.foreach(writeSemantics(out, _))) ==
      "dc3cfc2fe6586eefaa8feeb8d758e39e1e440762dc9fd3484ec1d99cf97c1fee")
  }

  test("Table 1 scenario matches the golden digest") {
    val s = SynthIndoor.table1Scenario(dsm)
    assert(digest(out => writeSim(out, s)) ==
      "bba191186654dc76436b6aabba3b4d900a43e831e87e5d5052321362eb5b42af")
  }
}
