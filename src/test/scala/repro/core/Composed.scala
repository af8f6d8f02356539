package repro.core

import repro.core.Knowledge.{KnowledgeModel, Summary}
import repro.core.Schema._
import repro.indoor.Dsm

/** A translation composed from the per-device functions without Spark: the
  * reference `Translator.translate` must equal. */
object Composed {

  /** The knowledge and the complemented semantics of `raw`. */
  def apply(dsm: Dsm, raw: Seq[PosRecord], model: EventModel,
            tc: Translator.Config = Translator.Config()): (KnowledgeModel, Seq[Semantic]) = {
    val annotated = raw.groupBy(_.deviceId).values.toSeq.map { rs =>
      Annotator.annotateDevice(dsm, model, Cleaner.cleanDevice(dsm, rs, tc.maxSpeed), tc.annotator)
    }
    val km = Summary.mergeAll(annotated.map(Summary.ofDevice)).toModel(tc.knowledgeAlpha)
    (km, annotated.flatMap(Complementor.complementDevice(dsm, km, _, tc.gapThreshold)))
  }

  /** `ss` in a canonical order: by device, then by `seqNo`. */
  def ordered(ss: Seq[Semantic]): Seq[Semantic] = ss.sortBy(s => (s.deviceId, s.seqNo))
}
