package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, Encoder}
import org.apache.spark.sql.functions.col
import repro.core.Schema.PosRecord
import scala.collection.mutable

/** The one per-device grouping idiom: of `Translator.translate`, the
  * layers' Spark entry points, the Event Editor's example cut and the
  * stop/move baseline.
  *
  * Raw records go through [[tracks]]: each input partition groups its
  * records by device and sends one columnar [[Track]] per device, so the
  * shuffle carries one record per (input partition, device), not one per
  * positioning record. The shuffle is an RDD `partitionBy`: on a 500-device
  * week (~192k records, 4 cores) a drained track shuffle took 61–77 ms
  * against 105–129 ms for the Dataset row exchange, and the same tracks
  * sent through a Dataset `repartition` took 111–122 ms, no better than
  * rows. The RDD path also runs its map and reduce stages in one job, with
  * no separate adaptive-execution stage job.
  *
  * Other rows (cleaned records, semantics) are shuffled on their
  * `deviceId` column by [[flatMap]]. Either way the shuffle goes straight
  * into one partition per core, and each partition groups what it
  * receives by device in a hash map and visits the devices in sorted id
  * order, so its output does not depend on the order rows arrive in.
  * Within a device, rows keep no particular order: every per-device
  * function sorts its own input in an order without ties, so the order
  * rows arrive in cannot change its output.
  */
private[repro] object PerDevice {

  /** Each device's raw records of `raw`, one element per device, in one
    * partition per core; a partition lists its devices in sorted id order. */
  def tracks(raw: Dataset[PosRecord]): RDD[(String, Vector[PosRecord])] =
    raw.rdd
      .mapPartitions(it => groups(it)(_.deviceId).map { case (id, rs) => id -> Track(rs) })
      .partitionBy(new HashPartitioner(raw.sparkSession.sparkContext.defaultParallelism))
      .mapPartitions(it => groups(it)(_._1).map { case (id, fs) =>
        id -> fs.iterator.flatMap(_._2.records(id)).toVector
      })

  /** One input partition's records of one device, as columns. */
  private final class Track(ts: Array[Long], x: Array[Double], y: Array[Double], floor: Array[Int])
    extends Serializable {
    def records(deviceId: String): Iterator[PosRecord] =
      ts.indices.iterator.map(i => PosRecord(deviceId, ts(i), x(i), y(i), floor(i)))
  }

  private object Track {
    def apply(rs: Vector[PosRecord]): Track = {
      val (ts, x, y, floor) = (new Array[Long](rs.length), new Array[Double](rs.length),
                               new Array[Double](rs.length), new Array[Int](rs.length))
      var i = 0
      rs.foreach { r => ts(i) = r.ts; x(i) = r.x; y(i) = r.y; floor(i) = r.floor; i += 1 }
      new Track(ts, x, y, floor)
    }
  }

  /** The rows of `it` grouped by `deviceId`, each device with its rows in
    * arrival order, the devices in sorted id order. */
  def groups[T](it: Iterator[T])(deviceId: T => String): Iterator[(String, Vector[T])] = {
    val byId = mutable.HashMap.empty[String, mutable.Builder[T, Vector[T]]]
    it.foreach(r => byId.getOrElseUpdate(deviceId(r), Vector.newBuilder[T]) += r)
    byId.keys.toArray.sorted.iterator.map(id => id -> byId(id).result())
  }

  /** `f` applied to each device's rows of `ds`, which must have a
    * `deviceId` column equal to `deviceId` of each row, shuffled on that
    * column into one partition per core. Raw records go through [[tracks]]
    * instead. */
  def flatMap[T, U: Encoder](ds: Dataset[T])(deviceId: T => String)
                            (f: Vector[T] => IterableOnce[U]): Dataset[U] =
    ds.repartition(ds.sparkSession.sparkContext.defaultParallelism, col("deviceId"))
      .mapPartitions(it => groups(it)(deviceId).flatMap { case (_, rows) => f(rows) })
}
