package tripsbench

import repro.gen.SynthIndoor.SimConfig

/** The translation benchmark.
  *
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`. Every input
  * is generated from the seed: the event model (trained on a disjoint
  * population derived from the seed) and the raw positioning records of
  * 500 devices, which every operation translates as a whole. With
  * `--trace 0` the run measures the end-to-end metrics with tracing off;
  * with `--trace 1` it records spans around each layer call and reports the
  * per-layer metrics. The last stdout line is the result object; the lines
  * before it are human-readable.
  */
object Main {

  /** Population of the mall week: ~191k raw records under the default
    * `SimConfig`. */
  val Devices = 500
  /** Devices an analyst selects for the traced select and view steps. */
  val TaskDevices = 8
  /** Quality is scored on every 2nd device (250). */
  val ScoreStride = 2
  /** Set-up runs per process; `setup_s` is their median. */
  val SetupRepeats = 3
  /** A run translates untimed for this long, after the first translation
    * and its scoring, before it times translations: JIT compilation speeds
    * translation up over the first few of them. */
  val WarmSeconds = 2.0
  /** Timed translations a run makes at least, however long they take. */
  val MinTimed = 3
  /** Samples beyond the reported tail percentile. */
  val TailBeyond = 10
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  val ShufflePartitions = 16

  final case class Workload(name: String, sim: SimConfig)

  val Workloads: Map[String, Workload] = Seq(
    Workload("week-bulk", SimConfig(nDevices = Devices)),
    // T4's gap settings with a dirtier feed: the Cleaner's repair branch
    // runs on ~1.8x the records (~26k of ~176k) and every device has a
    // hole to complement.
    Workload("week-dirty", SimConfig(nDevices = Devices,
      floorErrProb = 0.08, outlierProb = 0.05, gapProb = 1.0, gapMinSec = 120, gapMaxSec = 420)),
  ).map(w => w.name -> w).toMap

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean)

  def parseArgs(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    for {
      name <- kv.get("workload").toRight("missing --workload")
      w <- Workloads.get(name).toRight(s"unknown workload $name")
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight("bad --seed")
      secs <- kv.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).toRight("bad --seconds")
      trace <- kv.get("trace").collect { case "0" => false; case "1" => true }.toRight("bad --trace")
    } yield Args(w, seed, secs, trace)
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv) match {
      case Right(a) => a
      case Left(msg) =>
        System.err.println(s"$msg\nusage: --workload <${Workloads.keys.toSeq.sorted.mkString("|")}> " +
          "--seed <n> --seconds <s> --trace <0|1>")
        sys.exit(2)
    }
    val code =
      try {
        val (env, setupTimes) = Setup.repeated(args)
        try new Bench(args, env).run(setupTimes)
        finally env.spark.stop()
      } catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }
}
