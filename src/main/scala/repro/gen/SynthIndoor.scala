package repro.gen

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import repro.core.Schema._
import repro.indoor.Dsm
import repro.indoor.Geometry._
import scala.util.Random

/** Synthetic indoor positioning data over the [[Mall]] DSM.
  *
  * Substitutes the paper's proprietary Wi-Fi dataset (7-floor Hangzhou
  * mall, 2017-01-01..07). Two coupled artifacts, both deterministic in
  * (config, device index):
  *
  *  1. '''Ground truth''': a 1 Hz trace of each simulated shopper — an
  *     itinerary of shop visits (stay or pass-through) connected by
  *     shortest-indoor-path walks through doors/corridors/stairs — with the
  *     true mobility event and semantic region at every second.
  *  2. '''Raw positioning records''': the ground truth pushed through a
  *     Wi-Fi-like observation model — discrete sampling (~`sampleInterval`
  *     s), Gaussian position noise, occasional wrong floor values, heavy
  *     outliers, and dropped detection windows (gaps).
  *
  * The observation model produces exactly the error classes the paper's
  * Cleaning layer targets (speed-constraint violations, bad floor values,
  * discreteness) and the gaps the Complementing layer repairs.
  */
object SynthIndoor {

  /** Simulation configuration. `sf`=0.01 → 50 devices (unit tests);
    * `sf`=0.1 → 500 devices (benchmarks). */
  final case class SimConfig(
      nDevices: Int       = 50,
      seed: Long          = 42L,
      walkSpeed: Double   = 1.2,   // m/s mean walking speed
      sampleInterval: Int = 5,     // s between positioning records
      noiseSigma: Double  = 1.5,   // m, Gaussian xy noise
      floorErrProb: Double = 0.02, // wrong floor value per record
      outlierProb: Double  = 0.01, // heavy-tailed position outlier
      outlierSigma: Double = 15.0, // m, outlier noise scale
      gapProb: Double      = 0.5,  // device suffers >=1 detection gap
      gapMinSec: Int       = 60,
      gapMaxSec: Int       = 300)

  object SimConfig {
    def forSf(sf: Double, seed: Long = 42L): SimConfig =
      SimConfig(nDevices = math.max(1, (5000 * sf).toInt), seed = seed)
  }

  /** Everything the simulator knows about one device. `gaps` are the
    * detection-loss windows removed from `raw` (ground truth for T4). */
  final case class DeviceSim(deviceId: String, gt: Vector[GtRecord],
                             raw: Vector[PosRecord], gaps: Vector[(Long, Long)])

  /** Anonymized MAC-style device id; index 20 is `3a:…:14`-patterned so the
    * paper's walkthrough device-id filter has a real target. */
  def deviceId(idx: Int): String = {
    val b = new Random(idx * 7919L + 13L)
    f"3a:${b.nextInt(256)}%02x:${b.nextInt(256)}%02x:${b.nextInt(256)}%02x:${idx % 256}%02x:${idx / 256 % 256}%02x"
  }

  // ---------------------------------------------------------------- itinerary

  private sealed trait Visit { def shopId: String }
  private final case class StayVisit(shopId: String, durSec: Int) extends Visit
  private final case class PassVisit(shopId: String) extends Visit

  /** Zipf-weighted shop choice: a fixed popularity order (shuffled by the
    * global seed) with weight 1/rank^0.8, so the Complementor's mobility
    * knowledge sees a realistic skew. */
  private def pickShop(shops: IndexedSeq[(String, String)], rng: Random): String = {
    val alpha = 0.8
    val n = shops.size
    // Inverse-CDF draw over 1/k^alpha ranks.
    val u = rng.nextDouble()
    val norm = (1 to n).map(k => 1.0 / math.pow(k, alpha)).sum
    var acc = 0.0
    var k = 0
    while (k < n - 1 && acc < u * norm) { acc += 1.0 / math.pow(k + 1, alpha); k += 1 }
    shops(k)._1
  }

  // ---------------------------------------------------------------- trace

  /** One device's 1 Hz ground truth as it is built: the clock `t`, the
    * current point `cur` and the truth so far. [[simulate]] and
    * [[table1Scenario]] script their shoppers with it; only `dwell` draws
    * from `rng`, two numbers per second. */
  private final class Trace(dsm: Dsm, id: String, rng: Random,
                            var t: Long, var cur: IndoorPoint) {
    private val gt = Vector.newBuilder[GtRecord]

    /** The device is at `p` for the current second. */
    def emit(p: IndoorPoint, event: String): Unit = {
      val r = dsm.regionAtSnapped(p).getOrElse(
        throw new IllegalStateException(s"simulated point off-map: $p"))
      gt += GtRecord(id, t, p.x, p.y, p.floor, r.id, r.tag, event)
      cur = p
      t += 1
    }

    /** Walk `cur` → `dst` at 1 Hz along the shortest indoor path, in
      * `seconds(path length)` seconds. */
    def walk(dst: IndoorPoint, seconds: Double => Int): Unit = {
      val w = dsm.walk(cur, dst).getOrElse(
        throw new IllegalArgumentException(s"unreachable $cur -> $dst"))
      val dur = seconds(w.dist)
      for (s <- 1 to dur) emit(w.at(s.toDouble / dur), PassBy)
      cur = dst
    }

    /** Dwell `seconds` in `rect` on the current floor, from `cur` clamped
      * into it: each second steps `pull` of the way to `anchor` plus a
      * uniform jitter of width `jitter` per axis, clamped to `rect`. */
    def dwell(rect: Rect, anchor: Pt, pull: Double, jitter: Double,
              seconds: Int, event: String): Unit = {
      var p = rect.clamp(cur.pt)
      for (_ <- 1 to seconds) {
        val step = Pt((anchor.x - p.x) * pull + (rng.nextDouble() - 0.5) * jitter,
                      (anchor.y - p.y) * pull + (rng.nextDouble() - 0.5) * jitter)
        p = rect.clamp(p + step)
        emit(IndoorPoint(p.x, p.y, cur.floor), event)
      }
    }

    def result(): Vector[GtRecord] = gt.result()
  }

  // ---------------------------------------------------------------- simulate

  /** Simulate one device. Deterministic in (cfg.seed, idx). */
  def simulate(dsm: Dsm, cfg: SimConfig, idx: Int): DeviceSim = {
    val rng = new Random(cfg.seed * 1000003L + idx)
    val id = deviceId(idx)
    val shops = Mall.shops(dsm).sortBy(_._1)
    val shuffled = rng.shuffle(shops)

    val day = rng.nextInt(7)
    val start = WeekStart + day * SecondsPerDay + 10 * 3600 + rng.nextInt(8 * 3600)
    val entrance = dsm.regions.find(_.tag == "Entrance").getOrElse(dsm.regions.head)
    val startP = entrance.center

    val nVisits = 3 + rng.nextInt(6)
    val visits: Seq[Visit] = (0 until nVisits).map { _ =>
      val s = pickShop(shuffled, rng)
      if (rng.nextDouble() < 0.7) StayVisit(s, 90 + rng.nextInt(600)) else PassVisit(s)
    }

    val trace = new Trace(dsm, id, rng, start, startP)

    /** A walking pace drawn for one walk: its duration for a given path
      * length. Duration derives from the full walking cost (stair climbs
      * included), so the trace never violates the DSM's
      * minimum-walking-distance speed model that the Cleaner enforces. */
    def pace(): Double => Int = {
      val v = cfg.walkSpeed * (0.85 + 0.3 * rng.nextDouble())
      dist => math.max(1, math.round(dist / v).toInt)
    }

    /** Uniform random point of `rect`. */
    def pointIn(rect: Rect): Pt =
      Pt(rect.xMin + rng.nextDouble() * rect.width, rect.yMin + rng.nextDouble() * rect.height)

    /** Random interior point of a shop (inset 1 m from the walls). */
    def insidePoint(rid: String): IndoorPoint = {
      val region = dsm.regionById(rid)
      val p = pointIn(region.rect.inflate(-1.0))
      IndoorPoint(p.x, p.y, region.floor)
    }

    /** Wander around a random anchor of shop `rid` (inset 0.5 m). */
    def browse(rid: String, dur: Int, event: String): Unit = {
      val rect = dsm.regionById(rid).rect.inflate(-0.5)
      trace.dwell(rect, pointIn(rect), 0.1, 0.8, dur, event)
    }

    trace.emit(startP, PassBy) // first second at the entrance
    visits.foreach {
      case StayVisit(s, dur) => trace.walk(insidePoint(s), pace()); browse(s, dur, Stay)
      case PassVisit(s)      => trace.walk(insidePoint(s), pace()); browse(s, 4 + rng.nextInt(12), PassBy)
    }
    if (rng.nextDouble() < 0.5) trace.walk(entrance.center, pace())

    val truth = trace.result()

    // ------------------------------------------------- observation model
    val raw = Vector.newBuilder[PosRecord]
    var next = truth.head.ts + rng.nextInt(cfg.sampleInterval)
    truth.foreach { g =>
      if (g.ts >= next) {
        next = g.ts + cfg.sampleInterval + rng.nextInt(3) - 1
        val (dx, dy) =
          if (rng.nextDouble() < cfg.outlierProb)
            (rng.nextGaussian() * cfg.outlierSigma, rng.nextGaussian() * cfg.outlierSigma)
          else
            (rng.nextGaussian() * cfg.noiseSigma, rng.nextGaussian() * cfg.noiseSigma)
        val floor =
          if (rng.nextDouble() < cfg.floorErrProb)
            math.min(Mall.Floors - 1, math.max(0, g.floor + (if (rng.nextBoolean()) 1 else -1)))
          else g.floor
        raw += PosRecord(id, g.ts, g.x + dx, g.y + dy, floor)
      }
    }
    var records = raw.result()

    // Detection gaps: windows where the positioning system lost the device.
    val gaps = Vector.newBuilder[(Long, Long)]
    if (rng.nextDouble() < cfg.gapProb && records.size > 10) {
      val span = truth.last.ts - truth.head.ts
      val gapLen = cfg.gapMinSec + rng.nextInt(math.max(1, cfg.gapMaxSec - cfg.gapMinSec))
      if (span > gapLen + 120) {
        val gapStart = truth.head.ts + 60 + rng.nextInt((span - gapLen - 60).toInt)
        val gapEnd = gapStart + gapLen
        gaps += ((gapStart, gapEnd))
        records = records.filterNot(r => r.ts >= gapStart && r.ts <= gapEnd)
      }
    }
    DeviceSim(id, truth, records, gaps.result())
  }

  // ------------------------------------------------------------ Spark facade

  /** `f` of each simulated device whose index `keep` accepts, device-parallel.
    * The one place the facade runs [[simulate]]: each projection below
    * simulates every device once. A population is re-simulated for each
    * Dataset built from it, because that is cheaper than holding its 1 Hz
    * truth in memory (500 devices simulate in ~0.6 s on one thread and
    * carry ~1M truth rows). */
  def perDevice[U: Encoder](spark: SparkSession, dsm: Dsm, cfg: SimConfig,
                            keep: Int => Boolean = _ => true)
                           (f: DeviceSim => IterableOnce[U]): Dataset[U] = {
    val b = spark.sparkContext.broadcast(dsm)
    spark.range(cfg.nDevices).as[Long](Encoders.scalaLong)
      .filter(i => keep(i.toInt))
      .flatMap(i => f(simulate(b.value, cfg, i.toInt)))
  }

  /** Raw positioning records for all devices (the pipeline's input). */
  def raw(spark: SparkSession, dsm: Dsm, cfg: SimConfig): Dataset[PosRecord] = {
    import spark.implicits._
    perDevice(spark, dsm, cfg)(_.raw)
  }

  /** 1 Hz ground-truth trace (evaluation only). */
  def groundTruth(spark: SparkSession, dsm: Dsm, cfg: SimConfig): Dataset[GtRecord] = {
    import spark.implicits._
    perDevice(spark, dsm, cfg)(_.gt)
  }

  /** Injected detection-gap windows per device (evaluation of T4). */
  def gaps(spark: SparkSession, dsm: Dsm, cfg: SimConfig): Dataset[(String, Long, Long)] = {
    import spark.implicits._
    perDevice(spark, dsm, cfg)(s => s.gaps.map { case (g0, g1) => (s.deviceId, g0, g1) })
  }

  /** Ground-truth mobility semantics: run-length encoding of the 1 Hz
    * (event, region) trace — what a perfect translator would output.
    * [[simulate]] emits each device's truth in time order, so no sort or
    * shuffle is needed. */
  def truthSemantics(spark: SparkSession, dsm: Dsm, cfg: SimConfig): Dataset[Semantic] = {
    import spark.implicits._
    perDevice(spark, dsm, cfg)(s => encodeTruth(s.deviceId, s.gt))
  }

  /** RLE of a sorted ground-truth trace into semantics triplets. */
  def encodeTruth(dev: String, sorted: Seq[GtRecord]): Seq[Semantic] = {
    if (sorted.isEmpty) return Seq.empty
    val out = Vector.newBuilder[Semantic]
    var seq = 0
    var runStart = sorted.head
    var prev = sorted.head
    def close(last: GtRecord): Unit = {
      out += Semantic(dev, seq, runStart.event, runStart.tag, runStart.regionId,
                      runStart.ts, last.ts, source = "truth")
      seq += 1
    }
    sorted.tail.foreach { g =>
      if (g.event != prev.event || g.regionId != prev.regionId) { close(prev); runStart = g }
      prev = g
    }
    close(prev)
    out.result()
  }

  // ------------------------------------------------------- Table 1 scenario

  /** The scripted Table 1 shopper: on floor "3F" the device stays in
    * Adidas, passes by Nike, then stays at the Cashier, with timestamps
    * mirroring the paper's example (1:02 pm – 1:24 pm). Returns ground
    * truth and raw records for a single device `oi`.
    */
  def table1Scenario(dsm: Dsm, cfg: SimConfig = SimConfig()): DeviceSim = {
    val rng = new Random(cfg.seed)
    val id = "oi"
    val base = WeekStart + 13 * 3600 // 1:00 pm, 2017-01-01
    def region(tag: String) = dsm.regions.find(_.tag == tag).getOrElse(sys.error(s"no region $tag"))

    val trace = new Trace(dsm, id, rng, base + 2 * 60 + 5, { // 1:02:05 pm
      val r = region("Adidas"); val c = r.rect.inflate(-1).center; IndoorPoint(c.x, c.y, r.floor)
    })
    /** A walk that takes the seconds from now until `until`. */
    def arriving(until: Long): Double => Int = {
      val dur = math.max(1, (until - trace.t).toInt); _ => dur
    }
    /** Stay around the centre of `tag` through `until`. */
    def stay(tag: String, until: Long): Unit = {
      val rect = region(tag).rect.inflate(-0.8)
      trace.dwell(rect, rect.center, 0.05, 0.7, (until - trace.t + 1).toInt, Stay)
    }
    /** Browse through a region without stopping: a waypoint walk that
      * sweeps across the footprint — a pass-by, however long it takes. */
    def amble(tag: String, until: Long): Unit = {
      val r = region(tag)
      val rect = r.rect.inflate(-1.0)
      val ways = Vector(
        Pt(rect.xMin + 1, rect.yMax - 1), Pt(rect.xMax - 1, rect.yMin + 1),
        Pt(rect.xMin + 1, rect.yMin + 1), Pt(rect.xMax - 1, rect.yMax - 1))
      val poly = trace.cur.pt +: ways
      val total = poly.zip(poly.tail).map { case (a, b) => a.dist(b) }.sum
      val dur = math.max(1, (until - trace.t).toInt)
      for (s <- 1 to dur) {
        var remaining = total * s / dur
        var p = poly.head
        for (Seq(a, b) <- poly.sliding(2) if remaining > 0) {
          val l = a.dist(b)
          p = if (remaining >= l) b else a.lerp(b, remaining / l)
          remaining -= l
        }
        trace.emit(IndoorPoint(p.x, p.y, r.floor), PassBy)
      }
    }

    stay("Adidas", base + 18 * 60 + 15)                         // 1:02:05-1:18:15
    val nike = region("Nike")
    // Browse through Nike (a pass-by that lasts ~2 minutes, as in Table 1).
    trace.walk(IndoorPoint(nike.rect.xMin + 1.2, nike.rect.yMin + 1.2, nike.floor),
               arriving(base + 18 * 60 + 40))
    amble("Nike", base + 20 * 60 + 13)                          // ..1:20:13
    val cashier = region("Cashier")
    trace.walk(IndoorPoint(cashier.rect.center.x, cashier.rect.center.y, cashier.floor),
               arriving(base + 20 * 60 + 40))
    stay("Cashier", base + 24 * 60 + 5)                         // ..1:24:05

    val truth = trace.result()
    val raw = Vector.newBuilder[PosRecord]
    var next = truth.head.ts
    truth.foreach { g =>
      if (g.ts >= next) {
        next = g.ts + cfg.sampleInterval + rng.nextInt(3) - 1
        raw += PosRecord(id, g.ts,
          g.x + rng.nextGaussian() * cfg.noiseSigma,
          g.y + rng.nextGaussian() * cfg.noiseSigma,
          if (rng.nextDouble() < cfg.floorErrProb) math.max(0, g.floor - 1) else g.floor)
      }
    }
    DeviceSim(id, truth, raw.result(), Vector.empty)
  }
}
