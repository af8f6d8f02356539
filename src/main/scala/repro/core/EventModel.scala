package repro.core

import repro.config.EventEditor.TrainingExample
import repro.core.Schema._
import repro.ml.LogisticRegression
import repro.ml.LogisticRegression.Model

/** The learning-based mobility-event identification model (Annotation
  * layer). Trained on Event Editor segments; applied to every snippet to
  * produce the event annotation. Binary over the paper's two running
  * patterns: `stay` (class 1) vs `pass-by` (class 0); the feature set is
  * the paper's (§3) via [[Features]].
  */
final case class EventModel(model: Model) extends Serializable {

  /** Event annotation for a snippet's features. */
  def annotate(f: SnippetFeatures): String =
    if (model.predict(f.vector) == 1) Stay else PassBy

  /** P(stay) — useful for diagnostics and tie-breaking. */
  def stayProbability(f: SnippetFeatures): Double = model.probability(f.vector)
}

object EventModel {

  /** Train from Event Editor examples (driver-side; the analyst labels
    * hundreds of segments, not millions). The fit depends on example
    * order in its last bits, so the examples are stable-sorted by device
    * first: the model does not depend on how a Dataset of them was
    * partitioned. */
  def train(examples: Seq[TrainingExample]): EventModel = {
    require(examples.nonEmpty, "no training examples designated")
    val sorted = examples.sortBy(_.deviceId)
    val xs = sorted.map(_.features)
    val ys = sorted.map(e => if (e.label == Stay) 1 else 0)
    require(ys.distinct.size == 2,
      "training set must contain both stay and pass-by segments")
    EventModel(LogisticRegression.fit(xs, ys, l2 = 1e-3, maxIter = 800))
  }
}
