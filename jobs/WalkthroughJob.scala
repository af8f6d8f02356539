package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.config._
import repro.core._
import repro.core.Schema._
import repro.gen.{Mall, SynthIndoor}
import repro.gen.SynthIndoor.SimConfig
import repro.indoor.DsmJson
import repro.viewer.{AsciiMap, Timeline}

/** The five-step TRIPS workflow of Figure 5/6, end to end on synthetic
  * mall data:
  *
  *  1. Data Selector — select sequences within operating hours 10am–10pm;
  *  2. Space Modeler — build and save the mall DSM (JSON);
  *  3. Event Editor — designate training segments, train the event model;
  *  4. Translator — clean, annotate, complement;
  *  5. Viewer — timeline + map view for a `3a.*`-patterned device.
  *
  * Run: `spark-submit --class repro.jobs.WalkthroughJob <jar> [sf] [outDir]`
  */
object WalkthroughJob {

  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.01)
    val out = args.lift(1).getOrElse("/tmp/trips-out")
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("trips-walkthrough").config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try run(spark, sf, out)
    finally spark.stop()
  }

  def run(spark: SparkSession, sf: Double, out: String): Unit = {
    import spark.implicits._

    // Step 2 (first: the space is reusable across tasks): Space Modeler.
    val dsm = Mall.dsm()
    val dsmPath = java.nio.file.Paths.get(out, "dsm.json")
    java.nio.file.Files.createDirectories(dsmPath.getParent)
    java.nio.file.Files.writeString(dsmPath, DsmJson.write(dsm))
    println(s"[2/5] Space Modeler: DSM with ${dsm.regions.size} regions, " +
      s"${dsm.doors.size} doors -> $dsmPath")

    // Step 1: Data Selector over the raw positioning source.
    val cfg = SimConfig.forSf(sf)
    val raw = SynthIndoor.raw(spark, dsm, cfg).cache()
    val selected = DataSelector.select(raw.toDF(),
      Seq(OperatingHours(10, 22), MinDuration(10 * 60))).as[PosRecord].cache()
    println(s"[1/5] Data Selector: ${raw.count()} raw records -> " +
      s"${selected.count()} selected (operating hours, >=10 min sequences)")

    // Step 3: Event Editor designates training data; model is trained.
    val (model, trainDevs) = EventEditor.trainOnSimulation(spark, dsm, cfg.copy(seed = cfg.seed + 99), 0.5)
    println(s"[3/5] Event Editor: segments designated on ${trainDevs.size} devices, model trained")

    // Step 4: Translator.
    val result = Translator.translate(spark, selected, dsm, model)
    val semPath = java.nio.file.Paths.get(out, "semantics.json")
    result.semantics.toDF().coalesce(1).write.mode("overwrite").json(semPath.toString)
    val nSem = result.semantics.count()
    val nInf = result.semantics.filter(_.source == "inferred").count()
    println(s"[4/5] Translator: $nSem mobility semantics ($nInf inferred) -> $semPath")

    // Step 5: Viewer for one 3a.* device.
    val dev = selected.filter(col("deviceId").rlike("^3a")).select("deviceId")
      .as[String].head()
    val entries = Timeline.overlay(
      Timeline.fromPositioning(raw.toDF().filter(col("deviceId") === dev), "raw"),
      Timeline.fromPositioning(result.cleaned.toDF().filter(col("deviceId") === dev)
        .drop("repair"), "cleaned"),
      Timeline.fromSemantics(result.semantics.toDF().filter(col("deviceId") === dev),
        raw.toDF().filter(col("deviceId") === dev), Timeline.TemporallyMiddle))
    println(s"[5/5] Viewer: device $dev")
    entries.filter(col("source") === "semantics").orderBy("t_start")
      .select("label", "t_start", "t_end").collect()
      .foreach(r => println(f"  ${r.getString(0)}%-32s ${Table1Demo.clock(r.getLong(1))} - " +
        Table1Demo.clock(r.getLong(2))))
    val marks = entries.filter(col("source") === "cleaned" && col("floor") === 2)
      .select("x", "y").collect().map(r => (r.getDouble(0), r.getDouble(1), '*')).toSeq
    println(AsciiMap.render(dsm, 2, marks))
    result.unpersist()
    selected.unpersist()
    raw.unpersist()
  }
}
