package repro.core

import org.apache.spark.sql.{Dataset, Encoder}
import org.apache.spark.sql.functions.col

/** The one per-device grouping idiom of the layers' Spark entry points and
  * of `Translator.translate`.
  *
  * Rows are shuffled on the `deviceId` column and sorted on it within each
  * partition, so each device's rows form one consecutive run that a
  * partition walks in order. Hashing the column keeps the map side in
  * Spark's binary row format; a typed `groupByKey(_.deviceId)` would
  * deserialize every row there only to compute a key that already is a
  * column. Within a run, rows keep no particular order: every per-device
  * function sorts its own input.
  */
private[core] object PerDevice {

  /** `f` applied to each device's rows of `ds`, which must have a
    * `deviceId` column equal to `deviceId` of each row. */
  def flatMap[T, U: Encoder](ds: Dataset[T])(deviceId: T => String)
                            (f: Vector[T] => IterableOnce[U]): Dataset[U] =
    ds.repartition(col("deviceId")).sortWithinPartitions("deviceId")
      .mapPartitions(it => runs(it)(deviceId).flatMap(f))

  /** The consecutive runs of equal `deviceId` in `it`, in order. */
  def runs[T](it: Iterator[T])(deviceId: T => String): Iterator[Vector[T]] = {
    val in = it.buffered
    new Iterator[Vector[T]] {
      def hasNext: Boolean = in.hasNext
      def next(): Vector[T] = {
        val id = deviceId(in.head)
        val run = Vector.newBuilder[T]
        while (in.hasNext && deviceId(in.head) == id) run += in.next()
        run.result()
      }
    }
  }
}
