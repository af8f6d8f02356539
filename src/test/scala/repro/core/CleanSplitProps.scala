package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.Dsm
import repro.indoor.Dsm.Located
import repro.indoor.Geometry._
import scala.util.Try

/** `Cleaner.cleanDevice` and `Splitter.split` against the nested-branch
  * cleaner and the two-pass (sessions, then windows) splitter they
  * replaced, kept here verbatim as the reference. Results must be equal
  * exactly: records field by field with doubles as raw bits, and where the
  * reference throws, the same exception class.
  *
  * The cleaner sees dirty simulated tracks, whole or cut, single or empty;
  * conflicting duplicate timestamps in shuffled order; unknown floors and
  * NaN/±∞ coordinates; floor bursts in which two non-last floors tie inside
  * the lookahead window (the majority vote's tie order); `noiseSlack` 0 and
  * the default, `maxSpeed` 1 and 3. The splitter sees cleaned tracks
  * re-timed with steps at `sessionGap` − 1, `sessionGap` and
  * `sessionGap` + 1, floor flips, and `eps` 5, 14 and 30.
  */
object CleanSplitProps extends Properties("CleanSplit") {

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(500)

  private val dsm = Mall.dsm()

  /** The pre-flat-pass definitions. */
  private object Ref {
    import Cleaner.{DefaultMaxSpeed, DefaultNoiseSlack, Lookahead}
    import Splitter.{DefaultEps, DefaultMinDur, DefaultSessionGap}

    /** Records by timestamp; ties (duplicate timestamps) by floor, x, y. */
    private object ByTsThenFields extends Ordering[PosRecord] {
      def compare(a: PosRecord, b: PosRecord): Int = {
        var c = java.lang.Long.compare(a.ts, b.ts)
        if (c == 0) c = Integer.compare(a.floor, b.floor)
        if (c == 0) c = java.lang.Double.compare(a.x, b.x)
        if (c == 0) c = java.lang.Double.compare(a.y, b.y)
        c
      }
    }

    def cleanDevice(dsm: Dsm, records: Seq[PosRecord],
                    maxSpeed: Double = DefaultMaxSpeed,
                    noiseSlack: Double = DefaultNoiseSlack): Vector[CleanRecord] = {
      // Sort once and drop duplicate timestamps, keeping the first in
      // `ByTsThenFields` order, so the result does not depend on input order.
      val sorted = records.sorted(ByTsThenFields)
        .foldLeft(Vector.empty[PosRecord]) {
          case (acc, r) if acc.nonEmpty && acc.last.ts == r.ts => acc
          case (acc, r)                                        => acc :+ r
        }
      if (sorted.isEmpty) return Vector.empty

      // Each record is located in the DSM once; `last` carries its own
      // located point, and a floor-substituted candidate is located only
      // when it is tried.
      val loc = sorted.map(r => dsm.locate(r.point))

      def ok(from: Located, fromTs: Long, to: Located, toTs: Long): Boolean = {
        val dt = (toTs - fromTs).toDouble
        dt > 0 && math.max(0.0, dsm.minWalkDist(from, to) - noiseSlack) / dt <= maxSpeed
      }

      // The first record is the first anchor. Off the map (a non-finite x or
      // y, or a floor the DSM does not model) it can anchor nothing, so it
      // takes the location of the first on-map record, as an interpolation;
      // a device with no on-map record keeps it as it is.
      val anchor = if (loc.head.region.isDefined) 0 else math.max(0, loc.indexWhere(_.region.isDefined))
      val a = sorted(anchor)
      val out = Vector.newBuilder[CleanRecord]
      var last = CleanRecord(a.deviceId, sorted.head.ts, a.x, a.y, a.floor,
                             if (anchor == 0) "none" else "interp")
      var lastLoc = loc(anchor)
      out += last

      var i = 1
      while (i < sorted.length) {
        val r = sorted(i)
        if (ok(lastLoc, last.ts, loc(i), r.ts)) {
          last = CleanRecord(r.deviceId, r.ts, r.x, r.y, r.floor, "none")
          lastLoc = loc(i)
          out += last
        } else {
          // Step 1: floor value correction — only for an *isolated* floor
          // blip: some upcoming record must still report the previous floor
          // (floor errors are independent per record; a genuine floor change
          // makes every later record disagree, and pinning the device to the
          // old floor would cascade the error through the rest of the trace).
          val lookNext = (i + 1 until math.min(i + 1 + Lookahead, sorted.length))
          val corroborated = lookNext.isEmpty || lookNext.exists(j => sorted(j).floor == last.floor)
          lazy val fixed = dsm.locate(IndoorPoint(r.x, r.y, last.floor))
          if (r.floor != last.floor && corroborated && ok(lastLoc, last.ts, fixed, r.ts)) {
            last = CleanRecord(r.deviceId, r.ts, r.x, r.y, last.floor, "floor")
            lastLoc = fixed
            out += last
          } else {
            // Trust-the-future re-anchor: when the upcoming records agree
            // with r but none agrees with the last valid record, the stale
            // anchor — not r — is the outlier (e.g. an earlier repair went
            // wrong). Accept r as the new anchor instead of fabricating a
            // position from a bad base; this bounds any repair cascade.
            val votes = lookNext.take(3)
            val agreeR = votes.count(j => ok(loc(i), r.ts, loc(j), sorted(j).ts))
            val agreeLast = votes.count(j => ok(lastLoc, last.ts, loc(j), sorted(j).ts))
            // Two independent corroborating records are required — one could
            // itself be a correlated outlier (or share r's floor error).
            if (votes.size >= 2 && agreeR >= 2 && agreeLast == 0) {
              last = CleanRecord(r.deviceId, r.ts, r.x, r.y, r.floor, "reanchor")
              lastLoc = loc(i)
              out += last
            } else {
              // Step 2: location interpolation toward the next reachable
              // anchor. The device's apparent floor is the majority floor of
              // the lookahead window; anchors on that floor are preferred,
              // and a floor-substituted anchor is only acceptable when the
              // window majority actually supports the previous floor —
              // otherwise interpolation would pin the device to it.
              val majorityFloor =
                if (lookNext.isEmpty) r.floor
                else lookNext.map(j => sorted(j).floor).groupBy(identity)
                  .maxBy { case (f, v) => (v.size, f == last.floor) }._1
              def okAsIs(j: Int) = ok(lastLoc, last.ts, loc(j), sorted(j).ts)
              val anchor: Option[(Located, Long)] =
                lookNext.find(j => sorted(j).floor == majorityFloor && okAsIs(j))
                  .orElse(lookNext.find(okAsIs))
                  .map(j => (loc(j), sorted(j).ts))
                  .orElse {
                    if (majorityFloor != last.floor) None
                    else lookNext.iterator.map { j =>
                      (dsm.locate(IndoorPoint(sorted(j).x, sorted(j).y, last.floor)), sorted(j).ts)
                    }.find { case (target, ts) => ok(lastLoc, last.ts, target, ts) }
                  }
              val p = anchor match {
                case Some((target, targetTs)) =>
                  val frac = (r.ts - last.ts).toDouble / (targetTs - last.ts).toDouble
                  dsm.walk(lastLoc, target).fold(last.point)(_.at(frac))
                case None =>
                  last.point // no reachable anchor ahead: hold the last valid location
              }
              last = CleanRecord(r.deviceId, r.ts, p.x, p.y, p.floor, "interp")
              lastLoc = dsm.locate(p)
              out += last
            }
          }
        }
        i += 1
      }
      out.result()
    }

    def split(dsm: Dsm, records: Seq[CleanRecord],
              eps: Double = DefaultEps, minDur: Long = DefaultMinDur,
              sessionGap: Long = DefaultSessionGap): Vector[Snippet] = {
      if (records.isEmpty) return Vector.empty
      val rs = records.toIndexedSeq
      val out = Vector.newBuilder[Snippet]
      var nextId = 0

      def regionOf(r: CleanRecord): String =
        dsm.regionAtSnapped(r.point).map(_.id).getOrElse("?")

      /** Flush a run of movement records, splitting at region transitions. */
      def flushMove(buf: Seq[CleanRecord]): Unit = {
        if (buf.isEmpty) return
        val region = buf.iterator.map(regionOf).toArray
        var runStart = 0
        var i = 1
        while (i <= buf.length) {
          if (i == buf.length || region(i) != region(runStart)) {
            out += Snippet(buf.head.deviceId, nextId, dense = false, buf.slice(runStart, i))
            nextId += 1
            runStart = i
          }
          i += 1
        }
      }

      // Sessions at sampling holes.
      val sessions = Vector.newBuilder[IndexedSeq[CleanRecord]]
      var sStart = 0
      for (i <- 1 until rs.length) {
        if (rs(i).ts - rs(i - 1).ts > sessionGap) { sessions += rs.slice(sStart, i); sStart = i }
      }
      sessions += rs.slice(sStart, rs.length)

      for (sess <- sessions.result(); if sess.nonEmpty) {
        val move = Vector.newBuilder[CleanRecord]
        var i = 0
        while (i < sess.length) {
          // Greedily extend a window from i while it stays eps-dense on one floor.
          var j = i
          var bbox = Rect(sess(i).x, sess(i).y, sess(i).x, sess(i).y)
          var ok = true
          while (ok && j + 1 < sess.length) {
            val c = sess(j + 1)
            val grown = bbox.union(Rect(c.x, c.y, c.x, c.y))
            if (c.floor == sess(i).floor &&
                math.hypot(grown.width, grown.height) <= eps) { bbox = grown; j += 1 }
            else ok = false
          }
          if (sess(j).ts - sess(i).ts >= minDur) {
            flushMove(move.result()); move.clear()
            out += Snippet(sess(i).deviceId, nextId, dense = true, sess.slice(i, j + 1))
            nextId += 1
            i = j + 1
          } else {
            move += sess(i)
            i += 1
          }
        }
        flushMove(move.result()); move.clear()
      }
      out.result()
    }
  }

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  private def exact(r: CleanRecord): (String, Long, Long, Long, Int, String) =
    (r.deviceId, r.ts, bits(r.x), bits(r.y), r.floor, r.repair)

  /** `got` and `ref` both return the same value under `key`, or both throw
    * the same exception class. */
  private def same[A, K](got: Try[A], ref: Try[A])(key: A => K): Prop =
    Prop(got.failed.toOption.map(_.getClass) == ref.failed.toOption.map(_.getClass)) :| "exception" &&
      Prop(got.toOption.map(key) == ref.toOption.map(key)) :| "result"

  // ------------------------------------------------------------- cleaner

  /** T4's gap settings with a dirtier feed: a hole in every device. */
  private val dirtyCfg = SimConfig(nDevices = 10, floorErrProb = 0.08, outlierProb = 0.05,
                                   gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)
  private val tracks =
    (0 until 4).map(SynthIndoor.simulate(dsm, SimConfig(nDevices = 4), _).raw) ++
      (0 until dirtyCfg.nDevices).map(SynthIndoor.simulate(dsm, dirtyCfg, _).raw)

  /** A track, whole or cut to a window, one record or none. */
  private val base: Gen[Vector[PosRecord]] = for {
    t <- Gen.oneOf(tracks)
    from <- Gen.chooseNum(0, t.size - 1)
    cut <- Gen.frequency(3 -> Gen.const(t), 6 -> Gen.chooseNum(2, 80).map(n => t.slice(from, from + n)),
                         1 -> Gen.const(t.slice(from, from + 1)), 1 -> Gen.const(Vector.empty))
  } yield cut

  private val nonFinite = Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
  private val unknownFloor = Gen.oneOf(-1, Mall.Floors, 99)

  /** The record moved off the map: an unknown floor or a non-finite x or y. */
  private def offMap(r: PosRecord): Gen[PosRecord] = Gen.oneOf(
    unknownFloor.map(f => r.copy(floor = f)),
    nonFinite.map(v => r.copy(x = v)),
    nonFinite.map(v => r.copy(y = v)))

  /** A second record at r's timestamp: the same, moved, on another floor,
    * or off the map. */
  private def conflicting(r: PosRecord): Gen[PosRecord] = Gen.oneOf(
    Gen.const(r),
    Gen.zip(Gen.chooseNum(-20.0, 20.0), Gen.chooseNum(-8.0, 8.0)).map { case (dx, dy) =>
      r.copy(x = r.x + dx, y = r.y + dy) },
    Gen.chooseNum(0, Mall.Floors - 1).map(f => r.copy(floor = f)),
    offMap(r))

  /** Some records off the map, some timestamps repeated, the order shuffled. */
  private val corrupted: Gen[Vector[PosRecord]] = for {
    rs <- base
    q <- Gen.oneOf(0.0, 0.05, 0.3)
    bad <- Gen.sequence[Vector[PosRecord], PosRecord](rs.map(r =>
      Gen.prob(q).flatMap(if (_) offMap(r) else Gen.const(r))))
    dups <- Gen.sequence[Vector[Option[PosRecord]], Option[PosRecord]](rs.map(r =>
      Gen.prob(0.2).flatMap(if (_) conflicting(r).map(Some(_)) else Gen.const(None))))
    seed <- Gen.long
  } yield new scala.util.Random(seed).shuffle(bad ++ dups.flatten)

  /** A burst of records on two floors other than the one before the burst,
    * as many of each (interleaved, in blocks or shuffled), so the two tie
    * in a lookahead window; at the track's positions or displaced. */
  private val floorBurst: Gen[Vector[PosRecord]] = for {
    t <- Gen.oneOf(tracks)
    n <- Gen.chooseNum(20, 80)
    from <- Gen.chooseNum(0, math.max(0, t.size - n))
    rs = t.slice(from, from + n)
    at <- Gen.chooseNum(1, math.max(1, rs.size - 2))
    others = (0 until Mall.Floors).filter(_ != rs(at - 1).floor)
    f1 <- Gen.oneOf(others)
    f2 <- Gen.oneOf(others.filter(_ != f1))
    k <- Gen.chooseNum(1, 4)
    floors <- Gen.oneOf(Gen.const(Seq.fill(k)(Seq(f1, f2)).flatten), Gen.const(Seq.fill(k)(f1) ++ Seq.fill(k)(f2)),
                        Gen.pick(2 * k, Seq.fill(k)(f1) ++ Seq.fill(k)(f2)).map(_.toSeq))
    shift <- Gen.oneOf(Gen.const((0.0, 0.0)), Gen.zip(Gen.chooseNum(-30.0, 30.0), Gen.chooseNum(-10.0, 10.0)))
  } yield rs.zipWithIndex.map { case (r, i) =>
    if (i < at || i >= at + floors.size) r
    else r.copy(x = r.x + shift._1, y = r.y + shift._2, floor = floors(i - at))
  }

  private val device: Gen[Vector[PosRecord]] =
    Gen.frequency(3 -> base, 3 -> corrupted, 3 -> floorBurst)

  property("Cleaner.cleanDevice == reference") = forAll(
      device, Gen.oneOf(1.0, Cleaner.DefaultMaxSpeed), Gen.oneOf(0.0, Cleaner.DefaultNoiseSlack)) {
    (rs, maxSpeed, noiseSlack) =>
      same(Try(Cleaner.cleanDevice(dsm, rs, maxSpeed, noiseSlack)),
           Try(Ref.cleanDevice(dsm, rs, maxSpeed, noiseSlack)))(_.map(exact))
  }

  // ------------------------------------------------------------ splitter

  private val cleaned = tracks.map(Cleaner.cleanDevice(dsm, _))

  /** A cleaned track, whole or cut, with its time steps redrawn around the
    * session gap, some floors flipped and, rarely, a NaN coordinate. */
  private def splitInput(sessionGap: Long): Gen[Vector[CleanRecord]] = for {
    t <- Gen.oneOf(cleaned)
    from <- Gen.chooseNum(0, t.size - 1)
    rs <- Gen.frequency(1 -> Gen.const(t), 5 -> Gen.chooseNum(1, 120).map(n => t.slice(from, from + n)),
                        1 -> Gen.const(Vector.empty[CleanRecord]))
    retime <- Gen.prob(0.8)
    steps <- Gen.listOfN(rs.size, Gen.frequency(
      6 -> Gen.oneOf(1L, 5L, 10L), 1 -> Gen.const(0L),
      3 -> Gen.oneOf(sessionGap - 1, sessionGap, sessionGap + 1)))
    flip <- Gen.oneOf(0.0, 0.05, 0.2)
    flips <- Gen.listOfN(rs.size, Gen.prob(flip).flatMap(if (_) Gen.chooseNum(-1, 1) else Gen.const(0)))
    nan <- Gen.frequency(15 -> Gen.const(-1), 1 -> Gen.chooseNum(0, math.max(0, rs.size - 1)))
  } yield {
    val ts = if (retime) steps.scanLeft(rs.headOption.fold(0L)(_.ts))(_ + _) else rs.map(_.ts)
    rs.zip(ts).zip(flips).zipWithIndex.map { case (((r, t), df), i) =>
      r.copy(ts = t, floor = r.floor + df, x = if (i == nan) Double.NaN else r.x)
    }
  }

  private val splitCase: Gen[(Double, Long, Vector[CleanRecord])] = for {
    eps <- Gen.oneOf(5.0, Splitter.DefaultEps, 30.0)
    sessionGap <- Gen.oneOf(Splitter.DefaultSessionGap, 30L)
    rs <- splitInput(sessionGap)
  } yield (eps, sessionGap, rs)

  property("Splitter.split == reference") = forAll(splitCase) { case (eps, sessionGap, rs) =>
    def key(ss: Vector[Snippet]) = ss.map(s => (s.deviceId, s.snippetId, s.dense, s.records.map(exact)))
    Seq[Seq[CleanRecord]](rs, rs.toList).map { in =>
      same(Try(Splitter.split(dsm, in, eps, Splitter.DefaultMinDur, sessionGap)),
           Try(Ref.split(dsm, in, eps, Splitter.DefaultMinDur, sessionGap)))(key)
    }.reduce(_ && _)
  }
}
