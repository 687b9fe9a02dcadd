package trace

import (
	"fmt"
	"math/rand"
)

// ObjectAttrs returns the deterministic MIME and size for an object id
// under the given trace seed.
func ObjectAttrs(seed int64, obj int, model *ContentModel) (string, int) {
	r := rand.New(rand.NewSource(seed ^ int64(obj)*0x9e3779b9 + 0x1234))
	return model.Sample(r)
}

// ObjectURL renders the synthetic URL for an object.
func ObjectURL(obj int, mime string) string {
	ext := "bin"
	switch mime {
	case "image/sgif":
		ext = "sgif"
	case "image/sjpg":
		ext = "sjpg"
	case "text/html":
		ext = "html"
	}
	return fmt.Sprintf("http://origin%d.example/obj%d.%s", obj%50, obj, ext)
}
