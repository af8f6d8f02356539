package repro.bench

import repro.SparkSpec
import repro.gen.Mall
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.Dsm

/** Shared fixtures for the benchmark tables (T1–T5 in EXPERIMENTS.md).
  *
  * Benchmarks run at SF=0.1 (500 simulated devices over the demo week).
  * Each bench prints its table rows to stdout — `sbt "bench/test"` output
  * is the artifact recorded in EXPERIMENTS.md — and asserts the *shape*
  * claims (what wins, roughly by how much), not absolute numbers.
  */
trait BenchBase extends SparkSpec {

  val BenchSf = 0.1

  lazy val dsm: Dsm = Mall.dsm()

  def cfgFor(nDevices: Int, seed: Long = 42L): SimConfig =
    SimConfig(nDevices = nDevices, seed = seed)

  def timeMs[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000)
  }

  def banner(title: String): Unit = {
    println()
    println("=" * 78)
    println(s"== $title")
    println("=" * 78)
  }
}
