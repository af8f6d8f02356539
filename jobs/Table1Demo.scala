package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.config.EventEditor
import repro.core._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import java.time.{Instant, ZoneOffset}
import java.time.format.DateTimeFormatter

/** Reproduces the paper's '''Table 1''': raw indoor positioning records on
  * the left, the translated mobility semantics on the right, for a shopper
  * who stays in Adidas, passes by Nike and stays at the Cashier on 3F.
  *
  * The event model is trained on a small simulated population (the Event
  * Editor step); the scripted Table 1 device is then translated with the
  * full three-layer pipeline, whose mobility knowledge comes from that
  * device alone.
  *
  * Run: `spark-submit --class repro.jobs.Table1Demo <jar>`
  */
object Table1Demo {

  private val fmt = DateTimeFormatter.ofPattern("h:mm:ss a").withZone(ZoneOffset.UTC)
  def clock(ts: Long): String = fmt.format(Instant.ofEpochSecond(ts)).toLowerCase

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("trips-table1").getOrCreate()
    try {
      println(run(spark))
    } finally spark.stop()
  }

  /** Builds the Table 1 comparison text (shared with tests/benches). */
  def run(spark: SparkSession): String = {
    import spark.implicits._
    val dsm = Mall.dsm()

    // Event Editor: designate training segments on a small population.
    val (model, _) = EventEditor.trainOnSimulation(spark, dsm, SimConfig.forSf(0.01, seed = 7L), 1.0)

    // The scripted Table 1 shopper.
    val sim = SynthIndoor.table1Scenario(dsm)
    val raw = spark.createDataset(sim.raw)
    val result = Translator.translate(spark, raw, dsm, model)
    val semantics = result.semantics.collect().sortBy(_.tStart)

    val sb = new StringBuilder
    sb ++= "Table 1: Raw Indoor Positioning Data vs Mobility Semantics\n"
    sb ++= "-" * 72 + "\n"
    sb ++= f"${"Raw Positioning Records"}%-40s | Mobility Semantics\n"
    sb ++= "-" * 72 + "\n"
    val shown = sim.raw.take(3) ++ Seq(sim.raw.last)
    val left = shown.map(r =>
      f"${r.deviceId}, (${r.x}%.1f, ${r.y}%.1f, ${r.floor + 1}F), ${clock(r.ts)}")
    val right = s"${sim.deviceId}:" +: semantics.map(s =>
      s"(${s.event}, ${s.tag}, ${clock(s.tStart)}-${clock(s.tEnd)})")
    val n = math.max(left.size + 1, right.size)
    (0 until n).foreach { i =>
      val l = if (i < 3) left(i) else if (i == 3) "..." else if (i == n - 1) left.last else ""
      val r = if (i < right.size) right(i) else ""
      sb ++= f"$l%-40s | $r\n"
    }
    sb.result()
  }
}
