package workload

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync"

	"rattrap/internal/host"
)

// OCR is the image-tools benchmark: optical character recognition, the most
// common offloading benchmark in prior work (Tesseract via JNI in the
// paper) — compute-intensive with file transfer.
//
// The embedded recognizer is real: the task's text is rendered into a
// bitmap with a fixed 5×7 glyph font, and recognition runs nearest-template
// matching of every character cell against the whole alphabet, then the
// result is verified against the original text. The font is procedurally
// generated (35 deterministic bits per glyph) with a minimum pairwise
// Hamming distance enforced at init, which makes it behave exactly like a
// hand-drawn font for matching purposes.
type OCR struct {
	// masks holds one glyph per character of ocrAlphabet, in alphabet
	// order; bit i is pixel i of the 5×7 cell (row-major).
	masks [len(ocrAlphabet)]uint64
}

// Glyph geometry.
const (
	glyphW      = 5
	glyphH      = 7
	glyphPixels = glyphW * glyphH
)

// Calibration constants: Table II gives a 1.4 MB APK, ≈1.4 MB of migrated
// image per request and tiny text replies; the per-op scale models a
// megapixel camera image rather than the embedded strip.
const (
	ocrCodeSize    = 1400 * host.KB
	ocrParamBytes  = 8 * host.KB
	ocrFileBytes   = 1392 * host.KB
	ocrResultBytes = 1700
	ocrOpsPerOp    = 3500
	ocrAlphabet    = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 "
	ocrFontSeed    = 0x0c7_f0_47
)

var ocrWords = []string{
	"OFFLOAD", "CLOUD", "ANDROID", "CONTAINER", "BINDER", "KERNEL",
	"MOBILE", "RATTRAP", "ZYGOTE", "DRIVER", "IMAGE", "TEXT", "SCAN",
	"PHONE", "SERVER", "CACHE", "LAYER", "SHARED", "BOOT", "FAST",
}

type ocrParams struct {
	Seed  int64
	Chars int // approximate length of the rendered text
}

// sharedOCR generates and validates the font once per process; it is
// read-only afterwards, so every Registry can hold the same instance.
var sharedOCR = sync.OnceValue(func() *OCR {
	o := &OCR{}
	rng := seededRand(ocrFontSeed)
	defer randPool.Put(rng)
	for i := range o.masks {
		if ocrAlphabet[i] == ' ' { // space stays blank
			continue
		}
		for px := 0; px < glyphPixels; px++ {
			o.masks[i] |= uint64(rng.Intn(2)) << px
		}
	}
	// A usable font needs well-separated glyphs; with 35 random bits the
	// minimum distance is comfortably high, but verify so a bad seed can
	// never silently break recognition.
	for i := range o.masks {
		for j := i + 1; j < len(o.masks); j++ {
			if bits.OnesCount64(o.masks[i]^o.masks[j]) < 5 {
				panic(fmt.Sprintf("workload: ocr font glyphs %q and %q too similar", ocrAlphabet[i], ocrAlphabet[j]))
			}
		}
	}
	return o
})

// NewOCR returns the benchmark. The instance is shared process-wide: the
// first call generates and validates the font.
func NewOCR() *OCR { return sharedOCR() }

func (o *OCR) Name() string         { return NameOCR }
func (o *OCR) CodeSize() host.Bytes { return ocrCodeSize }

// NewTask draws a request: a 400–800 character document image.
func (o *OCR) NewTask(rng *rand.Rand, seq int) Task {
	p := ocrParams{Seed: rng.Int63(), Chars: 400 + rng.Intn(401)}
	scale := float64(p.Chars) / 600.0
	return Task{
		App:        NameOCR,
		Method:     "recognize",
		Seq:        seq,
		Params:     encodeParams(p),
		ParamBytes: ocrParamBytes,
		FileBytes:  host.Bytes(float64(ocrFileBytes) * scale),
	}
}

// genText builds deterministic text of roughly n characters.
func genText(rng *rand.Rand, n int) string {
	var b strings.Builder
	for b.Len() < n {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(ocrWords[rng.Intn(len(ocrWords))])
	}
	return b.String()
}

// render draws text into img as a horizontal strip, one glyph cell of 0/1
// pixel bytes per character; len(img) is len(text)*glyphPixels and every
// byte of it is written. A character outside the alphabet renders blank.
func (o *OCR) render(img []byte, text string) {
	for i := 0; i < len(text); i++ {
		var mask uint64
		if k := strings.IndexByte(ocrAlphabet, text[i]); k >= 0 {
			mask = o.masks[k]
		}
		cell := img[i*glyphPixels : (i+1)*glyphPixels]
		for px := range cell {
			cell[px] = byte(mask >> px & 1)
		}
	}
}

// recognize matches every cell of img against the whole alphabet, writes
// the recognized text to out (one byte per cell) and returns the number of
// pixel comparisons performed. A cell is packed into a bit mask once; its
// Hamming distance to a glyph is then one XOR and a popcount, which
// compares all glyphPixels pixels — so each template still counts
// glyphPixels operations.
func (o *OCR) recognize(out, img []byte) int64 {
	var ops int64
	for c := range out {
		var cell uint64
		for px, v := range img[c*glyphPixels : (c+1)*glyphPixels] {
			cell |= uint64(v&1) << px
		}
		bestChar := byte('?')
		bestDist := glyphPixels + 1
		for k, mask := range o.masks {
			d := bits.OnesCount64(cell ^ mask)
			ops += glyphPixels
			if d < bestDist {
				bestDist = d
				bestChar = ocrAlphabet[k]
			}
		}
		out[c] = bestChar
	}
	return ops
}

// ocrScratch recycles the rendered strip and the recognized text across
// requests, like vsScratch: render writes every byte of img and recognize
// every byte of out before either is read.
type ocrScratch struct{ img, out []byte }

var ocrPool = sync.Pool{New: func() any { return new(ocrScratch) }}

// Execute renders the document, recognizes it, and verifies the round trip.
func (o *OCR) Execute(t Task) (Metrics, error) {
	var p ocrParams
	if err := decodeParams(t.Params, &p); err != nil {
		return Metrics{}, fmt.Errorf("ocr: %w", err)
	}
	if p.Chars <= 0 || p.Chars > 100000 {
		return Metrics{}, fmt.Errorf("ocr: %d chars out of range", p.Chars)
	}
	rng := seededRand(p.Seed)
	text := genText(rng.Rand, p.Chars)
	randPool.Put(rng)
	scratch := ocrPool.Get().(*ocrScratch)
	defer ocrPool.Put(scratch)
	if cap(scratch.out) < len(text) {
		scratch.img = make([]byte, len(text)*glyphPixels)
		scratch.out = make([]byte, len(text))
	}
	img, out := scratch.img[:len(text)*glyphPixels], scratch.out[:len(text)]
	o.render(img, text)
	ops := o.recognize(out, img)
	if string(out) != text {
		return Metrics{}, fmt.Errorf("ocr: recognition mismatch (%d chars)", len(text))
	}
	scale := float64(p.Chars) / 600.0
	fileBytes := host.Bytes(float64(ocrFileBytes) * scale)
	preview := text
	if len(preview) > 24 {
		preview = preview[:24]
	}
	return Metrics{
		Work:        host.Work(float64(ops) * ocrOpsPerOp / 1e6),
		IOWrite:     fileBytes, // stage the uploaded image
		IORead:      fileBytes, // read it back for recognition
		ResultBytes: ocrResultBytes,
		RealOps:     ops,
		Output:      fmt.Sprintf("chars=%d text=%q...", len(text), preview),
	}, nil
}
