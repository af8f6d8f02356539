package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, Encoder}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType, StringType}
import org.apache.spark.unsafe.types.UTF8String
import repro.core.Schema.PosRecord
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The one per-device grouping idiom: of `Translator.translate`, the
  * layers' Spark entry points, the Event Editor's example cut and the
  * stop/move baseline.
  *
  * Raw records go through [[tracks]]: each input partition reads its rows
  * straight into one columnar [[Track]] per device (no `PosRecord` per
  * row) and sends it, so the shuffle carries one record per (input
  * partition, device), not one per positioning record; each device's
  * fragments are concatenated into one track on the reduce side. The
  * shuffle is an RDD `partitionBy`: on a 500-device week (~192k records,
  * 4 cores) a drained track shuffle took 61–77 ms
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

  /** Each device's raw records of `raw` as one [[Track]], one element per
    * device, in one partition per core; a partition lists its devices in
    * sorted id order. The map side reads the rows of `raw`'s plan (the
    * cached input's own rows, when it is cached) into columns, with no
    * [[PosRecord]] per row. */
  def tracks(raw: Dataset[PosRecord]): RDD[(String, Track)] = {
    val (rows, Array(id, ts, x, y, floor), nullable) = columns(raw)
    rows.mapPartitions { it =>
      // The rows are reused buffers: each value is copied out at once, and
      // the device id only when it is a new key. A row of the same device
      // as the row before it (the usual case) skips the hash lookup.
      val byId = new java.util.HashMap[UTF8String, Track.Builder]()
      var lastKey: UTF8String = null
      var last: Track.Builder = null
      it.foreach { r =>
        nullable.foreach(k => if (r.isNullAt(k)) throw new NullPointerException(
          "a null ts, x, y or floor: PosRecord's fields are primitive"))
        val key = r.getUTF8String(id)
        if (lastKey == null || lastKey != key) {
          lastKey = key.copy()
          last = byId.get(lastKey)
          if (last == null) { last = new Track.Builder; byId.put(lastKey, last) }
        }
        last.add(r.getLong(ts), r.getDouble(x), r.getDouble(y), r.getInt(floor))
      }
      byId.entrySet.iterator.asScala.map(e => e.getKey.toString -> e.getValue.result())
    }.partitionBy(new HashPartitioner(raw.sparkSession.sparkContext.defaultParallelism))
      .mapPartitions(it => groups(it)(_._1).map { case (id, fs) => id -> Track.concat(fs.map(_._2)) })
  }

  /** [[PosRecord]]'s fields and their column types. */
  private val PosColumns = Seq("deviceId" -> StringType, "ts" -> LongType, "x" -> DoubleType,
                               "y" -> DoubleType, "floor" -> IntegerType)

  /** The rows of `raw`'s plan, the ordinal of each of [[PosColumns]] in
    * them, bound once by name, and the ordinals of the numeric columns that
    * may hold a null. When a column has another type than its field, as
    * `as[PosRecord]` allows (an int `ts`), the rows are those of a
    * projection that casts each column, by name, to its field's type. */
  private def columns(raw: Dataset[PosRecord]): (RDD[InternalRow], Array[Int], Array[Int]) = {
    val typed = PosColumns.forall { case (n, t) => raw.schema.exists(f => f.name == n && f.dataType == t) }
    val qe =
      if (typed) raw.queryExecution
      else raw.select(PosColumns.map { case (n, t) => col(n).cast(t).as(n) }: _*).queryExecution
    val schema = qe.analyzed.schema
    val ordinals = PosColumns.map { case (n, _) => schema.fieldIndex(n) }.toArray
    (qe.toRdd, ordinals, ordinals.tail.filter(schema(_).nullable))
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
