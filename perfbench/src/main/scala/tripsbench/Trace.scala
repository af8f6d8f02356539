package tripsbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** One timed call into a layer. `parent` is the id of the enclosing span,
  * `op` the id of the operation (one translate or one task) it belongs to. */
final case class Span(id: Int, name: String, parent: Option[Int], op: Int,
                      startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

object Span {

  /** Self time of each span in seconds: its duration minus the part of its
    * interval that its direct children cover (overlapping children count
    * once). */
  def selfTimes(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.filter(_.parent.isDefined).groupBy(_.parent.get)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curEnd = Long.MinValue
      kids.foreach { case (a, b) =>
        val from = math.max(a, curEnd)
        if (b > from) covered += b - from
        curEnd = math.max(curEnd, b)
      }
      s.id -> (s.endNs - s.startNs - covered) / 1e9
    }.toMap
  }

  def toJson(s: Span): String =
    s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent.getOrElse("null")},""" +
      s""""op":${s.op},"start_ns":${s.startNs},"end_ns":${s.endNs}}"""
}

/** Spark work attributed to one span through its job group. */
final class SparkCounts {
  val jobs = new AtomicLong
  val stages = new AtomicLong
  val tasks = new AtomicLong
  val shuffleRead = new AtomicLong
  val shuffleWrite = new AtomicLong
}

/** Attributes jobs, stages, tasks and shuffle bytes to the job group that
  * was set on the driver thread when the work was submitted. */
final class GroupListener extends SparkListener {
  private val byGroup = new ConcurrentHashMap[String, SparkCounts]
  private val stageGroup = new ConcurrentHashMap[Int, String]

  private def groupOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty(GroupListener.GroupKey)))

  private def counts(g: String): SparkCounts = byGroup.computeIfAbsent(g, _ => new SparkCounts)

  def get(group: String): SparkCounts = counts(group)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    groupOf(e.properties).foreach(g => counts(g).jobs.incrementAndGet())

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    groupOf(e.properties).foreach { g =>
      stageGroup.put(e.stageInfo.stageId, g)
      counts(g).stages.incrementAndGet()
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageGroup.get(e.stageId)).foreach { g =>
      val c = counts(g)
      c.tasks.incrementAndGet()
      Option(e.taskMetrics).foreach { m =>
        c.shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
        c.shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      }
    }
}

object GroupListener {
  val GroupKey = "spark.jobGroup.id"
}

/** In-memory span recorder. Each span runs its body under its own Spark
  * job group, so the [[GroupListener]] can attribute the body's Spark work
  * to it; the enclosing span's group is restored afterwards. */
final class Tracer(sc: SparkContext, val listener: GroupListener) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var nextId = 0
  private var op = -1

  def groupOf(spanId: Int): String = s"span-$spanId"

  /** Start a new operation: spans opened at the top level share its id. */
  def operation[A](name: String)(body: => A): A = {
    op += 1
    span(name)(body)
  }

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption
    stack = id :: stack
    sc.setJobGroup(groupOf(id), name)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      stack.headOption match {
        case Some(p) => sc.setJobGroup(groupOf(p), "")
        case None    => sc.clearJobGroup()
      }
      spans += Span(id, name, parent, op, t0, t1)
    }
  }

  def recorded: Seq[Span] = spans.toSeq

  /** Spark counts of a span and all its descendants. */
  def sparkTotals(root: Span): SparkCounts = {
    val kids = spans.groupBy(_.parent)
    val out = new SparkCounts
    def add(s: Span): Unit = {
      val c = listener.get(groupOf(s.id))
      out.jobs.addAndGet(c.jobs.get); out.stages.addAndGet(c.stages.get)
      out.tasks.addAndGet(c.tasks.get)
      out.shuffleRead.addAndGet(c.shuffleRead.get)
      out.shuffleWrite.addAndGet(c.shuffleWrite.get)
      kids.getOrElse(Some(s.id), Nil).foreach(add)
    }
    add(root)
    out
  }
}
