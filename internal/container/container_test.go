package container

import (
	"bytes"
	"errors"
	"testing"
)

// sample writes a three-section container: two small metadata sections and
// one 64-byte-aligned "image".
func sample(t *testing.T) ([]byte, [][]byte) {
	t.Helper()
	payloads := [][]byte{[]byte("manifest"), bytes.Repeat([]byte{0xab}, 300), {}}
	var buf bytes.Buffer
	cw, err := NewWriter(&buf, KindSharded)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Add(TypeManifest, 0, payloads[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := cw.Add(TypeImage, 3, payloads[1], 64); err != nil {
		t.Fatal(err)
	}
	if err := cw.Add(TypeDurable, 0, payloads[2], 0); err != nil {
		t.Fatal(err)
	}
	if cw.Written() != int64(buf.Len()) {
		t.Fatalf("Written() = %d, wrote %d bytes", cw.Written(), buf.Len())
	}
	return buf.Bytes(), payloads
}

func TestWriterParseRoundTrip(t *testing.T) {
	data, payloads := sample(t)
	cf, err := Parse(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if cf.Kind != KindSharded || len(cf.Sections) != 3 {
		t.Fatalf("kind %d, %d sections", cf.Kind, len(cf.Sections))
	}
	for i, key := range [][2]uint64{{TypeManifest, 0}, {TypeImage, 3}, {TypeDurable, 0}} {
		s, ok := cf.Find(key[0], key[1])
		if !ok {
			t.Fatalf("section type %d shard %d not found", key[0], key[1])
		}
		got, err := cf.Payload(s, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Errorf("section %d payload = %q, want %q", i, got, payloads[i])
		}
		if err := cf.Verify(s); err != nil {
			t.Errorf("section %d: Verify: %v", i, err)
		}
	}
	if img, _ := cf.Find(TypeImage, 3); img.Off%64 != 0 {
		t.Errorf("image payload at offset %d, want 64-byte aligned", img.Off)
	}
	if _, ok := cf.Find(TypeImage, 0); ok {
		t.Error("found an image for a shard that has none")
	}
}

func TestParseRejectsTruncation(t *testing.T) {
	data, _ := sample(t)
	whole, err := Parse(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// A cut that lands exactly between two sections is a shorter valid
	// container; every other length must be reported, never a panic.
	boundary := map[int]bool{fileHdrBytes: true}
	for _, s := range whole.Sections {
		boundary[int(s.Off+s.Len)] = true
	}
	for n := 0; n < len(data); n++ {
		_, err := Parse(bytes.NewReader(data[:n]), int64(n))
		if boundary[n] {
			if err != nil {
				t.Errorf("cut at section boundary %d: %v", n, err)
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: error %v, want ErrCorrupt", n, err)
		}
	}
	bad := append([]byte("secidx99"), data[8:]...)
	if _, err := Parse(bytes.NewReader(bad), int64(len(bad))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: error %v, want ErrCorrupt", err)
	}
}

func TestPayloadRejectsFlippedBitsAndOversize(t *testing.T) {
	data, _ := sample(t)
	cf, err := Parse(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	img, _ := cf.Find(TypeImage, 3)
	if _, err := cf.Payload(img, img.Len-1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("payload over the size cap: error %v, want ErrCorrupt", err)
	}
	// One flipped payload bit, then one flipped bit of the stored checksum
	// (the last word of the image's section header, which follows the
	// manifest's payload).
	man, _ := cf.Find(TypeManifest, 0)
	for _, at := range []int64{img.Off + 17, man.Off + man.Len + 32} {
		mut := bytes.Clone(data)
		mut[at] ^= 0x10
		mf, err := Parse(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			t.Fatalf("flip at %d: Parse: %v", at, err)
		}
		s, _ := mf.Find(TypeImage, 3)
		if _, err := mf.Payload(s, 1<<10); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: Payload error %v, want ErrCorrupt", at, err)
		}
		if err := mf.Verify(s); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: Verify error %v, want ErrCorrupt", at, err)
		}
	}
	// A header declaring more payload than the file holds.
	mut := bytes.Clone(data)
	mut[fileHdrBytes+16+6] = 0x7f // manifest section's length word, high byte
	if _, err := Parse(bytes.NewReader(mut), int64(len(mut))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized declared length: error %v, want ErrCorrupt", err)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.U(0)
	e.U(1<<63 + 5)
	e.I(-12345)
	e.I(1 << 40)
	d := NewDecoder(e.Bytes())
	if a, b, c, f := d.U(), d.UN(1<<63+5), d.I(), d.I(); a != 0 || b != 1<<63+5 || c != -12345 || f != 1<<40 {
		t.Fatalf("decoded %d %d %d %d", a, b, c, f)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 + 5, ^uint64(0)} {
		var e Encoder
		if e.U(v); ULen(v) != len(e.Bytes()) {
			t.Fatalf("ULen(%d) = %d, U appended %d bytes", v, ULen(v), len(e.Bytes()))
		}
	}
}

func TestDecoderStickyErrors(t *testing.T) {
	var e Encoder
	e.U(300)
	e.U(7)
	cases := map[string]func(d *Decoder){
		"bound exceeded":  func(d *Decoder) { d.UN(299); d.U() },
		"trailing bytes":  func(d *Decoder) { d.U() },
		"read past end":   func(d *Decoder) { d.U(); d.U(); d.U() },
		"signed past end": func(d *Decoder) { d.U(); d.U(); d.I() },
	}
	for name, read := range cases {
		d := NewDecoder(e.Bytes())
		read(d)
		if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Finish error %v, want ErrCorrupt", name, err)
		}
	}
	// After the first failure every read returns zero and the error stays.
	d := NewDecoder(e.Bytes())
	d.UN(1)
	first := d.Err()
	if v := d.U(); v != 0 || d.Err() != first || first == nil {
		t.Errorf("after a failed read: U() = %d, Err() = %v (first %v)", v, d.Err(), first)
	}
	if d := NewDecoder([]byte{0x80}); d.U() != 0 || d.Err() == nil {
		t.Error("truncated varint accepted")
	}
}
