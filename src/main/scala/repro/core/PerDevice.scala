package repro.core

import org.apache.spark.sql.{Dataset, Encoder}
import org.apache.spark.sql.functions.col
import scala.collection.mutable

/** The one per-device grouping idiom: of `Translator.translate`, the
  * layers' Spark entry points, the Event Editor's example cut and the
  * stop/move baseline.
  *
  * Rows are shuffled on the `deviceId` column straight into one partition
  * per core, and each partition groups its rows by device in a hash map.
  * Hashing the column keeps the map side in Spark's binary row format; a
  * typed grouping on `_.deviceId` would deserialize every row there only
  * to compute a key that already is a column. The explicit partition count
  * keeps adaptive execution from resizing the shuffle, and no sort is
  * needed to find each device's rows. A partition visits its devices in
  * sorted id order, so its output does not depend on the order its rows
  * arrive in. Within a device, rows keep no particular order: every
  * per-device function sorts its own input.
  */
private[repro] object PerDevice {

  /** `ds` shuffled on its `deviceId` column into one partition per core. */
  def shuffle[T](ds: Dataset[T]): Dataset[T] =
    shuffle(ds, ds.sparkSession.sparkContext.defaultParallelism)

  /** `ds` shuffled on its `deviceId` column into `partitions` partitions. */
  def shuffle[T](ds: Dataset[T], partitions: Int): Dataset[T] =
    ds.repartition(partitions, col("deviceId"))

  /** The rows of `it` grouped by `deviceId`, each device with its rows in
    * arrival order, the devices in sorted id order. */
  def groups[T](it: Iterator[T])(deviceId: T => String): Iterator[(String, Vector[T])] = {
    val byId = mutable.HashMap.empty[String, mutable.Builder[T, Vector[T]]]
    it.foreach(r => byId.getOrElseUpdate(deviceId(r), Vector.newBuilder[T]) += r)
    byId.keys.toArray.sorted.iterator.map(id => id -> byId(id).result())
  }

  /** `f` applied to each device's rows of `ds`, which must have a
    * `deviceId` column equal to `deviceId` of each row. */
  def flatMap[T, U: Encoder](ds: Dataset[T])(deviceId: T => String)
                            (f: Vector[T] => IterableOnce[U]): Dataset[U] =
    shuffle(ds).mapPartitions(it => groups(it)(deviceId).flatMap { case (_, rows) => f(rows) })
}
