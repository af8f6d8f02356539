package repro.bench

import com.fasterxml.jackson.core.util.{DefaultIndenter, DefaultPrettyPrinter}
import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import java.nio.file.Files
import scala.jdk.CollectionConverters._

/** `BENCH_quality.json` at the repository root: the T1 text and the T2–T4
  * numbers of the latest `sbt bench/test`, one section per table. A bench
  * replaces only its own section, so running a single bench keeps the
  * others. Doubles are rounded to 6 decimals, because Spark may sum a
  * floating-point aggregate in a different order from run to run. */
object QualityLog {

  lazy val file: File = {
    val here = new File(".").getCanonicalFile
    val root = Iterator.iterate(here)(_.getParentFile).takeWhile(_ != null)
      .find(d => new File(d, "build.sbt").isFile).getOrElse(here)
    new File(root, "BENCH_quality.json")
  }

  private val mapper = new ObjectMapper()
  private val writer = mapper.writer(
    new DefaultPrettyPrinter().withArrayIndenter(DefaultIndenter.SYSTEM_LINEFEED_INSTANCE))

  private def json(v: Any): AnyRef = v match {
    case d: Double    => java.lang.Double.valueOf(BigDecimal(d).setScale(6, BigDecimal.RoundingMode.HALF_EVEN).toDouble)
    case n: Long      => java.lang.Long.valueOf(n)
    case s: String    => s
    case xs: Seq[_]   => xs.map(json).asJava
    case m: Map[_, _] => new java.util.TreeMap[String, AnyRef](m.map { case (k, x) => k.toString -> json(x) }.asJava)
  }

  /** Replace `table`'s section with `entries`, in their order. */
  def record(table: String, entries: (String, Any)*): Unit = {
    val all = new java.util.TreeMap[String, AnyRef]()
    if (file.isFile) all.putAll(mapper.readValue(file, classOf[java.util.Map[String, AnyRef]]))
    val section = new java.util.LinkedHashMap[String, AnyRef]()
    entries.foreach { case (k, v) => section.put(k, json(v)) }
    all.put(table, section)
    Files.writeString(file.toPath, writer.writeValueAsString(all) + "\n")
  }
}
