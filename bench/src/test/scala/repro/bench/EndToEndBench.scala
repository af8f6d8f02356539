package repro.bench

import repro.config.EventEditor
import repro.core._
import repro.gen.SynthIndoor

/** T5 — end-to-end throughput scaling: wall time of one
  * `Translator.translate` and overall records/s as the device population
  * grows (100 → 250 → 500 devices over the demo week). The pipeline is
  * device-parallel, so time should grow roughly linearly in devices
  * (sublinearly while cores are idle). perfbench measures the same call
  * repeatedly and by layer. */
class EndToEndBench extends BenchBase {

  test("T5: end-to-end translate timings vs population size") {
    val (model, _) = EventEditor.trainOnSimulation(spark, dsm, cfgFor(nDevices = 100, seed = 77L), 0.2)

    banner("T5: End-to-end scaling (translate full population)")
    println(f"${"devices"}%8s ${"records"}%10s ${"total ms"}%9s ${"rec/s"}%10s ${"semantics"}%10s")

    val rows = Seq(100, 250, 500).map { n =>
      val raw = SynthIndoor.raw(spark, dsm, cfgFor(nDevices = n)).cache()
      val nRec = raw.count()
      val ((translation, nSem), total) = timeMs {
        val r = Translator.translate(spark, raw, dsm, model)
        (r, r.semantics.count())
      }
      val rps = nRec * 1000.0 / math.max(1, total)
      println(f"$n%8d $nRec%10d $total%9d $rps%10.0f $nSem%10d")
      translation.unpersist(); raw.unpersist()
      (n, nRec, total, nSem)
    }

    // Shape: more devices -> more records and more semantics; the per-record
    // cost must not blow up (device-parallel pipeline, no quadratic step).
    assert(rows.map(_._2).sliding(2).forall { case Seq(a, b) => b > a })
    assert(rows.map(_._4).sliding(2).forall { case Seq(a, b) => b > a })
    val costPerRec = rows.map(r => r._3.toDouble / r._2)
    assert(costPerRec.last < costPerRec.head * 3,
      s"per-record cost should stay roughly flat: $costPerRec")
  }
}
